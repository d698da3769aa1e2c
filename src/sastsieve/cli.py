"""Command-line entry point binding all stages into user-invocable commands.

Exit codes: 0 success, 1 configuration, input or output-file error, 2 scanner
failure; commands raise and ``main`` alone maps an error to its code. Filter-stage
faults never change the exit code while fail-open is enabled. Secrets travel
only through environment variables.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace

from .backends import (
    CassetteRecorder,
    LiveBackend,
    ReplayBackend,
    ScriptedBackend,
)
from .benchmark import load_ground_truth
from .filter_agent import FilterError
from .ingest import ScannerOutputError
from .model import ConfigError, check_outputs, read_input, write_whole
from .pipeline import (
    CONFIG_KEYS,
    MissionPlan,
    ScannerError,
    parse_config_file,
    plan_mission,
    run_mission,
)
from .report import (
    DEFAULT_RETAINED_DISPLAY,
    DEFAULT_SUPPRESSED_DISPLAY,
    build_report,
    detections_of,
    format_scoring_text,
    load_report,
    render_json,
    render_text,
)
from .scoring import compare, load_detections, score_per_cwe, serialize_detections

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SCANNER = 2

# Unusable configuration, input files and output paths: one "error:" line, exit 1.
_INPUT_ERRORS = (ConfigError, OSError)
# The config keys that name an input file; no output may name one.
_PLAN_INPUTS = ("scan_json", "ground_truth", "baseline", "cwe_map", "template")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; configuration errors are exit 1 here."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def non_negative_int(text: str) -> int:
    """A non-negative integer flag value."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(func=cmd_run, parser=parser)
    # A flag's dest is the config key it overrides; None leaves the key alone.
    parser.add_argument(
        "--target", dest="target_root", help="source tree to scan (and to read context from)"
    )
    parser.add_argument("--scan-json", help="saved scanner JSON document to load instead of scanning")
    parser.add_argument("--config", help="mission config file (key = value lines)")
    parser.add_argument("--ground-truth", help="expected-results CSV for scoring")
    parser.add_argument("--baseline", help="baseline detections file for delta reporting")
    parser.add_argument(
        "--match-any-cwe", action="store_true", default=None, help="score by file only, ignoring CWE codes"
    )
    parser.add_argument(
        "--backend",
        choices=["live", "scripted", "replay"],
        default="scripted",
        help="LLM backend (default: scripted)",
    )
    parser.add_argument("--cassette", help="cassette file: written by --backend live, read by --backend replay")
    parser.add_argument("--verdicts", help="scripted backend: JSON file of finding_id -> classification")
    parser.add_argument(
        "--batch-size", type=int, help=f"findings per LLM call (default {MissionPlan.batch_size})"
    )
    parser.add_argument(
        "--parallelism", type=int, help=f"model requests in flight (default {MissionPlan.parallelism})"
    )
    parser.add_argument(
        "--no-fail-open",
        dest="fail_open",
        action="store_false",
        default=None,
        help="abort on filter failures instead of retaining",
    )
    parser.add_argument("--model", help="model identifier (overrides QSC_MODEL)")
    parser.add_argument("--template", help="prompt template file with {{findings_block}}")
    parser.add_argument("--cwe-map", help="CWE alias table file (alias -> category lines)")
    parser.add_argument("--scanner-cmd", help=f"scanner executable (default {MissionPlan.scanner_cmd})")
    parser.add_argument("--out-json", help=f"JSON report path (default {MissionPlan.out_json})")
    parser.add_argument("--out-text", help=f"text report path (default {MissionPlan.out_text})")
    parser.add_argument("--detections-out", help="also write kept detections (TestCaseId,CWE lines)")


def _mission_config(args: argparse.Namespace) -> dict[str, object]:
    config: dict[str, object] = read_input("config", args.config, parse_config_file) or {}
    for key in CONFIG_KEYS:
        if getattr(args, key, None) is not None:
            config[key] = getattr(args, key)
    return config


def _build_backend(args: argparse.Namespace, plan: MissionPlan) -> tuple[object, MissionPlan]:
    """The backend the flags select, and the plan with the model it will ask for."""
    if args.verdicts is not None and args.backend != "scripted":
        raise ConfigError(f"--verdicts belongs to the scripted backend, not {args.backend}")
    if args.backend == "live":
        live = LiveBackend(model_id=plan.model, timeout=plan.timeout)
        # The model may come from the environment; requests, cassette and report name it.
        plan = replace(plan, model=live.model_id)
        return (CassetteRecorder(live, args.cassette) if args.cassette is not None else live), plan
    if args.backend == "replay":
        if args.cassette is None:
            raise ConfigError("--cassette is required with the replay backend")
        return ReplayBackend(args.cassette), plan
    if args.cassette is not None:
        raise ConfigError("--cassette belongs to the live and replay backends, not scripted")
    return read_input("verdicts", args.verdicts, _scripted_backend) or _scripted_backend("{}"), plan


def _scripted_backend(text: str) -> ScriptedBackend:
    """The scripted backend for a JSON object of finding_id -> verdict; an empty one retains everything."""
    verdicts = json.loads(text)
    if not isinstance(verdicts, dict):
        raise ValueError("must hold a JSON object")
    return ScriptedBackend(verdicts, default=None if verdicts else "true_positive")


def cmd_run(args: argparse.Namespace) -> int:
    try:
        plan = plan_mission(_mission_config(args))
        inputs = {key: getattr(plan, key) for key in _PLAN_INPUTS}
        replayed = args.cassette if args.backend == "replay" else None
        check_outputs(
            {"config": args.config, "verdicts": args.verdicts, "cassette": replayed, **inputs},
            out_json=plan.out_json,
            out_text=plan.out_text,
            detections_out=args.detections_out,
            cassette=args.cassette if args.backend == "live" else None,
        )
        backend, plan = _build_backend(args, plan)
    except ConfigError:
        args.parser.print_usage(sys.stderr)
        raise
    gt = read_input("ground_truth", plan.ground_truth, load_ground_truth, errors="replace")
    baseline = read_input("baseline", plan.baseline, load_detections, errors="replace")

    succeeded = False
    try:
        report = run_mission(plan, backend)
        succeeded = True
    finally:
        # Recorded exchanges are kept even when a later stage fails, but a
        # failed run never clobbers an existing cassette with an empty one.
        if isinstance(backend, CassetteRecorder) and (succeeded or backend.record_count):
            backend.save()

    report = build_report(report, gt, baseline)
    write_whole(plan.out_json, render_json(report))
    write_whole(plan.out_text, render_text(report).encode("utf-8"))
    if args.detections_out is not None:
        write_whole(args.detections_out, serialize_detections(detections_of(report.retained)))
    print(
        f"run {report.run_id}: retained {len(report.retained)}, "
        f"suppressed {len(report.suppressed)}, "
        f"fail-open events {len(report.fail_open_events)}"
    )
    print(f"reports written to {plan.out_json} and {plan.out_text}")
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    detections = read_input("detections", args.detections, load_detections, errors="replace")
    gt = read_input("ground_truth", args.ground_truth, load_ground_truth, errors="replace")
    baseline = read_input("baseline", args.baseline, load_detections, errors="replace")

    card = score_per_cwe(detections, gt, match_any_cwe=args.match_any_cwe)
    baseline_card = deltas = None
    if baseline is not None:
        baseline_card = score_per_cwe(baseline, gt, match_any_cwe=args.match_any_cwe)
        deltas = compare(baseline_card, card)
    print("\n".join(format_scoring_text(card, baseline_card, deltas)))
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    check_outputs({"report": args.input}, out_json=args.out_json, out_text=args.out_text)
    report = read_input("report", args.input, load_report)
    if args.out_json is not None:
        write_whole(args.out_json, render_json(report))
    text = render_text(
        report, max_retained=args.max_retained, max_suppressed=args.max_suppressed
    )
    if args.out_text is not None:
        write_whole(args.out_text, text.encode("utf-8"))
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sastsieve",
        description="Filter static-analysis security findings through an LLM reviewer "
        "with fail-open retention, then score against benchmark ground truth.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="execute the full pipeline and write reports")
    _add_run_flags(run)

    score_p = sub.add_parser("score", help="score a detections file against ground truth")
    score_p.add_argument("--detections", required=True, help="TestCaseId,CWE lines")
    score_p.add_argument("--ground-truth", required=True, help="expected-results CSV")
    score_p.add_argument("--baseline", help="baseline detections for delta columns")
    score_p.add_argument("--match-any-cwe", action="store_true", help="score by file only")
    score_p.set_defaults(func=cmd_score)

    rep = sub.add_parser("report", help="re-render a saved JSON report")
    rep.add_argument("--in", dest="input", required=True, help="JSON report file")
    rep.add_argument("--out-json", help="rewrite canonical JSON here")
    rep.add_argument("--out-text", help="write the text report here instead of stdout")
    rep.add_argument(
        "--max-retained",
        type=non_negative_int,
        default=DEFAULT_RETAINED_DISPLAY,
        help="retained findings shown in text",
    )
    rep.add_argument(
        "--max-suppressed",
        type=non_negative_int,
        default=DEFAULT_SUPPRESSED_DISPLAY,
        help="suppressed findings shown in text",
    )
    rep.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScannerError as exc:
        message, code = f"scanner error: {exc}", EXIT_SCANNER
    except ScannerOutputError as exc:
        message, code = f"scanner output error: {exc}", EXIT_SCANNER
    except FilterError as exc:  # only with --no-fail-open: strictness was asked for
        message, code = f"filter error: {exc}", EXIT_CONFIG
    except _INPUT_ERRORS as exc:
        message, code = f"error: {exc}", EXIT_CONFIG
    print(message, file=sys.stderr)
    return code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
