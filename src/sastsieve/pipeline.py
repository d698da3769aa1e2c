"""Mission orchestration: plan a run, obtain scanner output, filter it, and
assemble the unscored report.

Stages run sequentially (scan, parse, normalize, dedupe, filter); only the
filter stage is internally concurrent. Filter-stage faults never abort a
mission while fail-open is enabled.
"""

from __future__ import annotations

import logging
import subprocess
import threading
import time
import typing
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping

from .backends import DEFAULT_TIMEOUT
from .filter_agent import DEFAULT_CONTEXT_BUDGET, DEFAULT_TEMPLATE, FINDINGS_PLACEHOLDER, filter_findings
from .ingest import CweMappingTable, ScannerOutputError, dedupe_by_testcase, normalize, parse_scanner_output
# ConfigError and read_input are imported from here too.
from .model import ConfigError, as_path, read_input, record_lines, replace_surrogates
from .report import PlanSummary, Report, Timing

log = logging.getLogger(__name__)


class ScannerError(RuntimeError):
    """Scanner could not be launched, failed, or produced no usable output."""


@dataclass(frozen=True)
class MissionPlan:
    """Fully resolved run parameters; each field name is its config key.

    Every int field is at least 1, and every float field is positive and at
    most ``threading.TIMEOUT_MAX``, the longest wait a request can be given.
    """

    target_root: Path | None = None
    scan_json: Path | None = None
    batch_size: int = 15
    parallelism: int = 4
    fail_open: bool = True
    ground_truth: Path | None = None
    baseline: Path | None = None
    out_json: Path = Path("report.json")
    out_text: Path = Path("report.txt")
    scanner_cmd: str = "semgrep"
    cwe_map: Path | None = None
    template: Path | None = None
    model: str = ""
    context_budget: int = DEFAULT_CONTEXT_BUDGET
    timeout: float = DEFAULT_TIMEOUT
    match_any_cwe: bool = False

    def __post_init__(self) -> None:
        # A model id names no file, so one from non-UTF-8 argv is repaired here:
        # the request, its digest and the report then carry the same text.
        object.__setattr__(self, "model", replace_surrogates(self.model))
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if kind is int and not value >= 1:
                raise ConfigError(f"{name}: must be >= 1, got {value}")
            if kind is float and not 0 < value <= threading.TIMEOUT_MAX:  # also refuses nan
                raise ConfigError(
                    f"{name}: must be positive and at most {threading.TIMEOUT_MAX:.0f}, got {value}"
                )


_FIELD_TYPES = typing.get_type_hints(MissionPlan)
CONFIG_KEYS = tuple(_FIELD_TYPES)


def parse_config_file(text: str) -> dict[str, str]:
    """Parse the ``key = value`` mission config format (# comments allowed)."""
    values: dict[str, str] = {}
    for lineno, stripped in record_lines(text):
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        values[key.strip()] = value.strip()
    return values


def _coerce(key: str, kind: object, value: object) -> object:
    """The config value as the field's type: bool, str, int, float or Path."""
    if kind is bool:
        lowered = str(value).strip().lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {value!r}")
    if kind in (int, float):
        try:
            return kind(str(value))
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            raise ConfigError(f"{key}: expected {expected}, got {value!r}") from None
    if kind is str:
        return str(value)
    return as_path(key, value)  # Path, or Path | None


def plan_mission(config: Mapping[str, object]) -> MissionPlan:
    """Resolve a config mapping into a MissionPlan with defaults applied.

    Rejects unknown keys and out-of-range values with an error naming the
    field. A plan needs either target_root (external scan) or scan_json
    (saved scanner output); with both, the saved output wins and the target
    supplies source context.
    """
    unknown = set(config) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(str(k) for k in unknown))}")

    plan = MissionPlan(
        **{
            key: _coerce(key, kind, config[key])
            for key, kind in _FIELD_TYPES.items()
            if config.get(key) is not None
        }
    )
    if plan.scan_json is None and plan.target_root is None:
        raise ConfigError("target_root: a target directory or scan_json is required")
    return plan


def run_scanner(plan: MissionPlan) -> bytes:
    """Load the saved scanner document when the plan names one, else run the scanner.

    External invocation treats a nonzero exit as success when stdout still
    parses as a results document (scanners commonly signal "findings found"
    through the exit code).
    """
    if plan.scan_json is not None:
        try:
            return plan.scan_json.read_bytes()
        except OSError as exc:
            raise ScannerError(f"saved scanner output unreadable: {plan.scan_json}: {exc}") from exc

    argv = [plan.scanner_cmd, "scan", "--config", "auto", "--json", str(plan.target_root)]
    log.info("invoking scanner: %s", " ".join(argv))
    try:
        proc = subprocess.run(argv, capture_output=True, timeout=3600)
    except FileNotFoundError as exc:
        raise ScannerError(f"scanner executable not found: {plan.scanner_cmd}") from exc
    except OSError as exc:  # e.g. not executable
        raise ScannerError(f"scanner could not be started: {exc}") from exc
    except subprocess.TimeoutExpired as exc:
        raise ScannerError(f"scanner timed out: {exc}") from exc
    if proc.returncode != 0:
        try:
            parse_scanner_output(proc.stdout)
        except ScannerOutputError as exc:
            stderr_tail = proc.stderr.decode("utf-8", errors="replace")[-2000:]
            raise ScannerError(
                f"scanner exited with {proc.returncode} and no parseable output:\n{stderr_tail}"
            ) from exc
        log.info("scanner exited %d but produced parseable output; continuing", proc.returncode)
    return proc.stdout


def correlate_evidence() -> None:
    """Nothing calls this. perfbench's traced probe binds the name; ROADMAP item 1 deletes it with read_source_context."""


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def run_mission(plan: MissionPlan, backend) -> Report:
    """Execute scan, parse, normalize, dedupe and filter, and return the
    unscored report.

    The CWE alias table and the prompt template are read before the scan,
    so a bad one raises ConfigError before the scanner runs.
    """
    started = _utcnow()
    table = read_input("cwe_map", plan.cwe_map, CweMappingTable.load) or CweMappingTable.default()
    template = read_input("template", plan.template, str)
    if template is None:
        template = DEFAULT_TEMPLATE
    if FINDINGS_PLACEHOLDER not in template:
        log.warning("prompt template lacks %s; appending the findings block", FINDINGS_PLACEHOLDER)

    payload = run_scanner(plan)
    parsed = parse_scanner_output(payload)
    log.info("scanner produced %d results (%d skipped)", len(parsed.findings), parsed.skipped)

    findings = [normalize(raw, table) for raw in parsed.findings]
    deduped = dedupe_by_testcase(findings)
    log.info("%d findings after per-test-case dedupe", len(deduped))

    filter_started = time.perf_counter()
    retained, suppressed, latency = filter_findings(deduped, backend, plan, template)
    report = Report(
        plan=PlanSummary.of(plan, len(parsed.findings), parsed.skipped),
        retained=tuple(retained),
        suppressed=tuple(suppressed),
        timing=Timing(started, _utcnow(), latency, time.perf_counter() - filter_started),
    )
    log.info(
        "filter retained %d and suppressed %d findings over %d batches",
        len(retained), len(suppressed), report.stats.batch_count,
    )
    return report
