"""The filter's one promise, checked against a log of every model answer.

It is checked on the filter stage alone and on a whole run over a saved
scanner document. A seeded backend injects a fault chosen per request (a
good answer, an omitted, duplicated or unknown entry, malformed JSON, a
lone surrogate in a rationale, a transport error or a timeout), sometimes
after waiting out one or two retry backoffs, over a source tree with
missing files, an out-of-root symlink and files over the context budget.
The oracle reads only that log and the tree: a finding is suppressed
exactly when a well-formed answer for a request that listed it named it a
false positive first, and every other finding is retained under the cause
the injector chose. The report's accounting follows from the log too: one
model call per logged request, and one fail-open event per failed request
and per finding that an answer left out or that was never sent. The model
attempts in flight, outside a backoff, never exceed the plan's parallelism.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import time
from collections import Counter
from dataclasses import replace

import pytest

from sastsieve.backends import BackendError, BackendTimeoutError, backoff
from sastsieve.filter_agent import DEFAULT_TEMPLATE, FailOpenEvent, filter_findings
from sastsieve.ingest import CweMappingTable, dedupe_by_testcase, normalize, parse_scanner_output
from sastsieve.model import Classification, FailOpenCause, Provenance
from sastsieve.pipeline import MissionPlan, run_mission
from sastsieve.report import PlanSummary, Report
from tests.conftest import make_finding
from tests.test_ingest import result_doc

SEEDS = range(60)

# The action the backend takes and, when the finding is left without a
# verdict, the cause it must be retained under.
RAISES = {"transport": FailOpenCause.TRANSPORT_ERROR, "timeout": FailOpenCause.TIMEOUT}
WELL_FORMED = ("good", "omit", "duplicate", "unknown", "surrogate")
ACTIONS = WELL_FORMED + ("malformed",) + tuple(RAISES)
# Not an answer: wait out a backoff, then draw again (at most twice).
BACKOFF = "backoff"


class FaultInjector:
    """Answers each request by a fault drawn from the seed and the request's ids.

    Every call is logged as (request, action, answer text or None), so the
    oracle sees exactly what the filter was told. ``peak`` is the most
    attempts that were ever in flight at once, counted outside backoffs.
    """

    def __init__(self, seed: int, all_ids: list[str]):
        self.seed = seed
        self.all_ids = all_ids
        self.log: list[tuple[object, str, str | None]] = []
        self.in_flight = 0
        self.peak = 0
        self._lock = threading.Lock()

    def _count(self, change: int) -> None:
        with self._lock:
            self.in_flight += change
            self.peak = max(self.peak, self.in_flight)

    def complete(self, request):
        rng = random.Random(f"{self.seed}:{','.join(request.finding_ids)}")
        self._count(1)
        try:
            action = rng.choice(ACTIONS + (BACKOFF,))
            waits = 0
            while action == BACKOFF:
                waits += 1
                self._count(-1)
                backoff(rng.uniform(0.001, 0.004))
                self._count(1)
                action = rng.choice(ACTIONS + (BACKOFF,) * (waits < 2))
            time.sleep(0.001)  # an attempt takes a while, so attempts overlap
            text = None if action in RAISES else self._answer(rng, action, list(request.finding_ids))
        finally:
            self._count(-1)
        with self._lock:
            self.log.append((request, action, text))
        if action == "transport":
            raise BackendError("injected transport error")
        if action == "timeout":
            raise BackendTimeoutError("injected timeout")
        return text

    def _answer(self, rng: random.Random, action: str, ids: list[str]) -> str:
        if action == "malformed":
            return rng.choice(["not json", '{"results": [', "", "[]", '{"results": {}}'])
        classes = [c.value for c in Classification]
        results = [
            {"finding_id": fid, "classification": rng.choice(classes), "rationale": "r"}
            for fid in ids
        ]
        if action == "omit":
            del results[rng.randrange(len(results))]
        elif action == "duplicate":
            twin = dict(rng.choice(results))
            twin["classification"] = rng.choice(classes)
            results.insert(rng.randint(0, len(results)), twin)
        elif action == "unknown":
            stranger = rng.choice([fid for fid in self.all_ids if fid not in ids] or ["f999999"])
            entry = {"finding_id": stranger, "classification": "false_positive", "rationale": "r"}
            results.insert(rng.randint(0, len(results)), entry)
        elif action == "surrogate":
            rng.choice(results)["rationale"] = "lone \ud800 surrogate"
        # A lone surrogate goes out escaped or raw; both decode to one.
        return json.dumps({"results": results}, ensure_ascii=rng.random() < 0.5)


def build_tree(rng: random.Random, base):
    """A target root with small and over-budget files, a missing file and an escaping symlink.

    Returns the root, the paths that resolve to readable files inside it, and every path.
    """
    root = base / "target"
    (root / "src").mkdir(parents=True)
    outside = base / "outside.txt"
    outside.write_text("outside secret\n")
    readable = []
    for i in range(rng.randint(1, 4)):
        path = f"src/Small{i}.java"
        lines = [f"small {i} line {n}\n" for n in range(rng.randint(1, 8))]
        (root / path).write_text("".join(lines))
        readable.append(path)
    for i in range(rng.randint(1, 3)):
        path = f"src/Big{i}.java"
        lines = [f"big {i} line {n} {'x' * rng.randint(0, 80)}\n" for n in range(rng.randint(100, 300))]
        (root / path).write_text("".join(lines))
        readable.append(path)
    (root / "src" / "Link.java").symlink_to(outside)
    unreadable = ["src/Link.java", "../outside.txt", "src/Gone0.java", "src/Gone1.java"]
    return root, readable, readable + unreadable


def first_classifications(text: str, listed: tuple[str, ...]) -> dict[str, str]:
    """The first classification a well-formed answer gives each listed id."""
    first: dict[str, str] = {}
    for item in json.loads(text)["results"]:
        if item["finding_id"] in listed:
            first.setdefault(item["finding_id"], item["classification"])
    return first


def through_filter(rng, findings, plan, base):
    """The filter stage alone, over the findings as given, in a report of its result."""

    def run(backend):
        retained, suppressed, _ = filter_findings(findings, backend, plan, DEFAULT_TEMPLATE)
        summary = PlanSummary.of(plan, len(findings), 0)
        return Report(plan=summary, retained=tuple(retained), suppressed=tuple(suppressed))

    return findings, run


def through_mission(rng, findings, plan, base):
    """A whole run over a saved scanner document of the findings.

    The document repeats one result and has one without a path, so the
    findings the filter reviews are its results normalized and deduped.
    """
    results = [result_doc(f.file_path, f.start_line, f.end_line, check_id=f.id) for f in findings]
    if results:
        results.insert(rng.randint(0, len(results)), dict(rng.choice(results)))
    results.insert(rng.randint(0, len(results)), {"check_id": "no.path", "start": {"line": 1}})
    scan = base / "scan.json"
    scan.write_text(json.dumps({"results": results}))
    raws = parse_scanner_output(scan.read_bytes()).findings
    reviewed = dedupe_by_testcase([normalize(raw, CweMappingTable.default()) for raw in raws])

    return reviewed, lambda backend: run_mission(replace(plan, scan_json=scan), backend)


@pytest.fixture
def fast_switching():
    """Switch threads far more often than the interpreter's default 5 ms."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("entry", [through_filter, through_mission])
def test_filter_keeps_its_promise_under_injected_faults(tmp_path, fast_switching, entry):
    for seed in SEEDS:
        rng = random.Random(seed)
        base = tmp_path / f"case{seed}"
        root, readable, paths = build_tree(rng, base)
        findings = []
        for n in range(rng.randint(0, 40)):
            start = rng.randint(1, 320)
            end = start + rng.randint(0, 3)
            findings.append(make_finding(n, file_path=rng.choice(paths), start_line=start, end_line=end))
        plan = MissionPlan(
            target_root=root,
            batch_size=rng.randint(1, 20),
            parallelism=rng.randint(1, 8),
            context_budget=rng.randint(200, 3000),
        )
        findings, run = entry(rng, findings, plan, base)
        backend = FaultInjector(seed, [f.id for f in findings])
        report = run(backend)
        retained, suppressed = list(report.retained), list(report.suppressed)

        # Retained plus suppressed is the input, each finding once, in input order.
        order = {f.id: i for i, f in enumerate(findings)}
        for part in (retained, suppressed):
            positions = [order[ff.finding.id] for ff in part]
            assert positions == sorted(positions), seed
        every = sorted(order[ff.finding.id] for ff in retained + suppressed)
        assert every == list(range(len(findings))), seed

        # What the log says each finding's verdict must be.
        expected: dict[str, tuple[str, FailOpenCause | None]] = {}
        for request, action, text in backend.log:
            first = first_classifications(text, request.finding_ids) if action in WELL_FORMED else {}
            for fid in request.finding_ids:
                assert fid not in expected, f"seed {seed}: {fid} sent twice"
                if fid in first:
                    expected[fid] = (first[fid], None)
                elif action in WELL_FORMED:
                    expected[fid] = ("true_positive", FailOpenCause.MISSING_ENTRY)
                else:
                    cause = RAISES.get(action, FailOpenCause.MALFORMED_RESPONSE)
                    expected[fid] = ("true_positive", cause)
        unsent = ("true_positive", FailOpenCause.SOURCE_UNAVAILABLE)
        for ff in retained + suppressed:
            fid, verdict = ff.finding.id, ff.verdict
            assert (fid in expected) == (ff.finding.file_path in readable), (seed, fid)
            classification, cause = expected.get(fid, unsent)
            # Suppressed exactly when a well-formed answer named it false_positive first.
            assert verdict.classification.value == classification, (seed, fid)
            assert verdict.cause is cause, (seed, fid, verdict)
            if cause is None:
                assert verdict.provenance is Provenance.LLM_DECISION, (seed, fid)
                assert "\ud800" not in verdict.rationale

        # One call per logged request; one event per failed request, then per
        # finding an answer left out or whose source was never sent (the
        # causes just checked against the log).
        assert report.stats.llm_calls == len(backend.log), seed
        batch = {ff.finding.id: ff.batch_index for ff in retained + suppressed}
        failed = [
            FailOpenEvent(batch[request.finding_ids[0]], RAISES.get(action, FailOpenCause.MALFORMED_RESPONSE))
            for request, action, _ in backend.log
            if action not in WELL_FORMED
        ]
        per_finding = [
            FailOpenEvent(ff.batch_index, ff.verdict.cause)
            for ff in retained
            if ff.verdict.cause in (FailOpenCause.MISSING_ENTRY, FailOpenCause.SOURCE_UNAVAILABLE)
        ]
        assert Counter(report.fail_open_events) == Counter(failed + per_finding), seed
        positions = [event.batch_index for event in report.fail_open_events]
        assert positions == sorted(positions), seed
        assert backend.peak <= plan.parallelism, (seed, backend.peak)
