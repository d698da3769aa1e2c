"""Probes that time sastsieve's layers from outside the program.

An untraced probe only marks the run window (scanner-output load to the
end of ``cli.main``) and counts what reaches ``backend.complete``. A traced
probe also wraps the public functions each layer calls into and records
one in-memory span per call: name, start, end, parent span, thread and, for
filter work, the batch index. Per-layer metrics are computed from the
spans after the run, outside the timed window.
"""

from __future__ import annotations

import bisect
import functools
import re
import sys
import threading
import time
from pathlib import Path

clock = time.monotonic  # CLOCK_MONOTONIC: comparable across processes


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "batch", "extra")

    def __init__(self, name, parent, thread, batch):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.batch = batch
        self.extra = None
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _utf8_len(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _replace_everywhere(owner, attr: str, wrapper) -> None:
    """Rebind ``owner.attr`` and every sastsieve module name bound to it."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    for name, module in list(sys.modules.items()):
        if name.startswith("sastsieve") and module is not None:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


class SetupDone(Exception):
    """Raised at the start of the run when only set-up is measured."""


class Probe:
    def __init__(self, traced: bool, setup_only: bool = False):
        self.traced = traced
        self.setup_only = setup_only
        self.spans: list[Span] = []
        self.run_started = 0.0
        self.run_ended = 0.0
        self.prompt_bytes: list[int] = []
        self.batch_of: dict[str, int] = {}
        self.main_thread = threading.get_ident()
        self._filter_span: Span | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    # --- span recording ----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, batch: int | None = None) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # Filter workers start on their own threads; the filter caused them.
            parent = self._filter_span
        if batch is None and parent is not None:
            batch = parent.batch
        span = Span(name, parent, threading.get_ident(), batch)
        self.spans.append(span)
        stack.append(span)
        span.start = clock()
        return span

    def _close(self, span: Span) -> None:
        span.end = clock()
        self._stack().pop()

    def _wrap(self, name, func, batch=None, extra=None):
        """A wrapper recording one span per call of ``func``."""
        probe = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = probe._open(name, batch(args) if batch else None)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.extra = {"error": type(exc).__name__}
                raise
            finally:
                probe._close(span)
            if extra:
                span.extra = extra(args, result)
            return result

        return wrapper

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        from sastsieve import cli

        if self.traced:
            self._install_spans()
        probe = self
        run_mission = cli.run_mission

        def timed_run_mission(plan, backend, *args, **kwargs):
            probe.run_started = clock()
            if probe.setup_only:
                raise SetupDone
            probe._count_calls(backend)
            return run_mission(plan, backend, *args, **kwargs)

        cli.run_mission = timed_run_mission

    def _count_calls(self, backend) -> None:
        """Wrap the instance's ``complete``: count prompt bytes, time calls."""
        complete = backend.complete
        probe = self

        def counted(request):
            size = _utf8_len(request.system_text) + _utf8_len(request.user_text)
            with probe._lock:
                probe.prompt_bytes.append(size)
            if not probe.traced:
                return complete(request)
            span = probe._open("backends.call", getattr(probe._local, "batch", None))
            span.extra = {"prompt_bytes": size}
            try:
                return complete(request)
            finally:
                probe._close(span)

        backend.complete = counted

    def _install_spans(self) -> None:
        from sastsieve import backends, benchmark, filter_agent, ingest, pipeline, report, scoring

        probe = self

        def remember_batches(args, batches):
            for b in batches:
                for f in b.findings:
                    probe.batch_of[f.id] = b.index
            return {"batches": len(batches), "findings": sum(len(b.findings) for b in batches)}

        def snippet_batch(args):
            return probe.batch_of.get(args[0].id)

        def snippet_extra(args, snippet):
            return {"file": args[0].file_path, "root": str(args[1]), "snippet": snippet}

        def prompt_batch(args):
            # The backend call that follows on this thread is for this batch.
            probe._local.batch = args[0].index
            return args[0].index

        wraps = [
            (pipeline, "run_mission", "pipeline.run_mission", None, None),
            (pipeline, "run_scanner", "pipeline.scan_load", None, None),
            (
                ingest,
                "parse_scanner_output",
                "ingest.parse",
                None,
                lambda a, r: {"results": len(r.findings), "skipped": r.skipped},
            ),
            (ingest, "normalize", "ingest.normalize", None, None),
            (ingest, "dedupe_by_testcase", "ingest.dedupe", None, None),
            (pipeline, "correlate_evidence", "pipeline.evidence", None, None),
            (filter_agent, "partition_batches", "filter_agent.partition", None, remember_batches),
            (filter_agent, "read_source_context", "filter_agent.context_read", snippet_batch, snippet_extra),
            (filter_agent, "build_prompt", "filter_agent.prompt_build", prompt_batch, None),
            (filter_agent, "parse_llm_response", "filter_agent.parse", lambda a: a[1].index, None),
            (filter_agent, "apply_verdicts", "filter_agent.apply", lambda a: a[0].index, None),
            (backends, "request_digest", "backends.digest", None, None),
            (report, "build_report", "report.build", None, None),
            (report, "render_json", "report.render_json", None, lambda a, r: {"bytes": len(r)}),
            (report, "render_text", "report.render_text", None, None),
            (scoring, "score_per_cwe", "scoring.score_per_cwe", None, None),
            (scoring, "compare", "scoring.compare", None, None),
            (benchmark, "load_ground_truth", "benchmark.load_ground_truth", None, None),
        ]
        for owner, attr, name, batch, extra in wraps:
            _replace_everywhere(owner, attr, self._wrap(name, getattr(owner, attr), batch, extra))

        filter_findings = filter_agent.filter_findings

        def traced_filter(*args, **kwargs):
            span = probe._open("filter_agent.filter")
            probe._filter_span = span
            try:
                return filter_findings(*args, **kwargs)
            finally:
                probe._close(span)

        _replace_everywhere(filter_agent, "filter_findings", functools.wraps(filter_findings)(traced_filter))

        backends.ReplayBackend.__init__ = self._wrap(
            "backends.cassette_load", backends.ReplayBackend.__init__
        )
        backends.ReplayBackend.complete = self._wrap(
            "backends.replay", backends.ReplayBackend.complete
        )
        backends.CassetteRecorder.save = self._wrap(
            "backends.cassette_save", backends.CassetteRecorder.save
        )
        time.sleep = self._wrap("backends.retry_sleep", time.sleep)

    def run_cli(self, main, argv) -> int:
        """Call ``main`` (in a span when traced) and mark the run's end."""
        if self.traced:
            main = self._wrap("cli.main", main)
        try:
            return main(argv)
        except SetupDone:
            return 0
        finally:
            self.run_ended = clock()

    # --- metrics -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans (traced runs only)."""
        spans = self.spans
        by_name: dict[str, list[Span]] = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)

        def total(name):
            return sum(s.duration for s in by_name.get(name, ()))

        def count(name):
            return len(by_name.get(name, ()))

        lo, hi = self.run_started, self.run_ended
        children: dict[int, list[Span]] = {}
        for span in spans:
            if span.parent is not None and span.parent.thread == span.thread:
                children.setdefault(id(span.parent), []).append(span)

        def in_window(span):
            return max(0.0, min(span.end, hi) - max(span.start, lo))

        self_in_run: dict[str, float] = {}
        for span in spans:
            if span.thread != self.main_thread:
                continue
            own = in_window(span) - sum(in_window(c) for c in children.get(id(span), ()))
            self_in_run[span.name] = self_in_run.get(span.name, 0.0) + own

        filt = by_name.get("filter_agent.filter", [])
        wall = sum(s.duration for s in filt)
        filter_start = filt[0].start if filt else 0.0
        calls = by_name.get("backends.call", [])
        call_times = sorted(s.duration for s in calls)
        waits = sorted(s.start - filter_start for s in calls)
        prompt_sizes = sorted(s.extra["prompt_bytes"] for s in calls)
        parsed = [s.extra for s in by_name.get("ingest.parse", []) if s.extra and "results" in s.extra]
        partitions = [s.extra for s in by_name.get("filter_agent.partition", []) if s.extra]
        n_batches = sum(p["batches"] for p in partitions)
        n_partitioned = sum(p["findings"] for p in partitions)
        replays = by_name.get("backends.replay", [])
        misses = sum(1 for s in replays if s.extra and s.extra.get("error") == "CassetteMissError")
        reads = [s for s in by_name.get("filter_agent.context_read", []) if s.extra and "snippet" in s.extra]
        snippet_bytes = sum(_utf8_len(s.extra["snippet"]) for s in reads)
        rendered = [s.extra["bytes"] for s in by_name.get("report.render_json", []) if s.extra]

        return {
            "ingest.parse_s": total("ingest.parse"),
            "ingest.normalize_s": total("ingest.normalize"),
            "ingest.dedupe_s": total("ingest.dedupe"),
            "ingest.results": sum(p["results"] for p in parsed),
            "ingest.skipped": sum(p["skipped"] for p in parsed),
            "pipeline.scan_load_s": total("pipeline.scan_load"),
            "pipeline.evidence_s": total("pipeline.evidence"),
            "pipeline.mission_s": total("pipeline.run_mission"),
            "pipeline.self_s": self_in_run.get("pipeline.run_mission", 0.0),
            "filter_agent.wall_s": wall,
            "filter_agent.batches": n_batches,
            "filter_agent.findings_per_batch": n_partitioned / n_batches if n_batches else 0.0,
            "filter_agent.batch_wait_s.p50": _percentile(waits, 50),
            "filter_agent.batch_wait_s.p90": _percentile(waits, 90),
            "filter_agent.concurrency": sum(call_times) / wall if wall else 0.0,
            "filter_agent.context_reads": count("filter_agent.context_read"),
            "filter_agent.context_read_s": total("filter_agent.context_read"),
            "filter_agent.prompt_build_s": total("filter_agent.prompt_build"),
            "filter_agent.parse_s": total("filter_agent.parse"),
            "filter_agent.apply_s": total("filter_agent.apply"),
            "filter_agent.context_bytes_sent": snippet_bytes,
            "filter_agent.prompt_bytes.p50": _percentile(prompt_sizes, 50),
            "filter_agent.prompt_bytes.max": prompt_sizes[-1] if prompt_sizes else 0,
            "filter_agent.context_dup_ratio": _dup_ratio(reads, snippet_bytes),
            "backends.call_s.p50": _percentile(call_times, 50),
            "backends.call_s.p90": _percentile(call_times, 90),
            "backends.call_sum_s": sum(call_times),
            "backends.retry_sleep_s": total("backends.retry_sleep"),
            "backends.digest_s": total("backends.digest"),
            "backends.cassette_load_s": total("backends.cassette_load"),
            "backends.cassette_save_s": total("backends.cassette_save"),
            "backends.replay_hits": len(replays) - misses,
            "backends.replay_misses": misses,
            "report.build_s": total("report.build"),
            "report.render_json_s": total("report.render_json"),
            "report.render_text_s": total("report.render_text"),
            "report.json_bytes": sum(rendered),
            "scoring.score_per_cwe_s": total("scoring.score_per_cwe"),
            "scoring.compare_s": total("scoring.compare"),
            "benchmark.load_ground_truth_s": total("benchmark.load_ground_truth"),
            "cli.self_s": self_in_run.get("cli.main", 0.0),
            "trace.spans": len(spans),
            "trace.accounted_s": sum(self_in_run.values()),
        }


def _percentile(ordered: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def _dup_ratio(reads: list[Span], snippet_bytes: int) -> float:
    """Share of snippet bytes repeating a line range already sent in the batch.

    Each snippet is located in its source file (a windowed snippet may
    carry a marker line at either end that the file lacks); a snippet that
    cannot be located counts as entirely new.
    """
    if not snippet_bytes:
        return 0.0
    files: dict[str, tuple[str, list[int]]] = {}
    covered: dict[tuple[int | None, str], set[int]] = {}
    duplicate = 0
    for span in sorted(reads, key=lambda s: s.start):
        path = str(Path(span.extra["root"]) / span.extra["file"])
        if path not in files:
            text = Path(path).read_text(encoding="utf-8", errors="replace")
            starts = [0] + [m.end() for m in re.finditer("\n", text)]
            files[path] = (text, starts)
        text, starts = files[path]
        snippet = span.extra["snippet"]
        lines = snippet.splitlines(keepends=True)
        for body in (snippet, "".join(lines[1:]), "".join(lines[:-1]), "".join(lines[1:-1])):
            pos = text.find(body) if body else -1
            if pos >= 0:
                break
        if pos < 0:
            continue
        first = bisect.bisect_right(starts, pos) - 1
        last = bisect.bisect_right(starts, pos + len(body) - 1) - 1
        seen = covered.setdefault((span.batch, path), set())
        for line in range(first, last + 1):
            if line in seen:
                end = starts[line + 1] if line + 1 < len(starts) else len(text)
                duplicate += end - starts[line]
            else:
                seen.add(line)
    return duplicate / snippet_bytes
