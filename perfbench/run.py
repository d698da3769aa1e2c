"""sastsieve triage benchmark.

    python3 perfbench/run.py --workload owasp|dense|live-rescan --seed N \
        --seconds S --trace 0|1

Run from a checkout of the repository (it needs ``src/`` and ``tests/``).
BENCHMARK.json gates owasp and live-rescan. dense, the CPU-path workload,
runs the same way but is not gated: its CPU-bound times followed the
measurement host's speed too closely to hold any allowed bound
(perfbench/baseline.json records why).
The workload's inputs are generated from the seed into
``.perfbench-work/`` and removed afterwards. The program is then run
again and again, each time as one ``sastsieve run`` in a fresh interpreter,
until ``--seconds`` have been spent. Every invocation's outputs are checked.
With ``--trace 1`` every other invocation is traced, and the traced ones
give the per-layer metrics. Each invocation is pinned to one CPU. When
the workload's invocations are long,
extra invocations that stop after the program's set-up bring setup_s to
at least 15 samples.

Standard output lists every metric with its median, quartiles and sample
count. The last line is one JSON object: ``correct``, ``attempted`` and
``failed`` count invocations, and ``metrics`` holds the medians of the
gated end-to-end metrics (``--trace 0``) or of the per-layer metrics
(``--trace 1``). The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# (name, unit). The first seven are gated by BENCHMARK.json; the last two
# are 0 on some workloads by design, so they are printed here and gated
# nowhere (they also appear among the per-layer metrics).
END_TO_END = [
    ("run_s", "s"),
    ("findings_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("llm_calls", "count"),
    ("prompt_kib", "KiB"),
    ("prompt_bytes_per_finding", "B"),
    ("model_requests", "count"),
    ("fail_open_share", "ratio"),
]
GATED = 7
MIN_SETUP_SAMPLES = 15


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith(("ratio", "share", "concurrency", "per_batch", "per_connection")):
        return "ratio"
    return "count"


def _summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def _print_table(title: str, rows: list[tuple[str, str, list[float]]]) -> dict:
    print(title)
    medians = {}
    for name, unit, values in rows:
        median, q1, q3 = _summary(values)
        medians[name] = {"value": median, "unit": unit}
        print(f"  {name:<40} {median:>14.6g} {unit:<6} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    return medians


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["owasp", "dense", "live-rescan"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    for needed in ("src/sastsieve/cli.py", "tests/test_end_to_end.py", "tests/conftest.py"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found; run from a sastsieve checkout", file=sys.stderr)
            return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT)]
    import spans
    import workloads

    # Each invocation runs on the first CPU and this process (with the
    # loopback stub) on the others: the filter's threads then hand the GIL
    # over on one CPU, and on a host that steals CPU time that made dense
    # run_s swing far less from run to run.
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(0, cpus[1:])
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, work, cpus)
    runs = []
    try:
        started = spans.clock()
        workload.prepare()
        print(f"{args.workload} seed {args.seed}: inputs ready in {spans.clock() - started:.2f}s")
        started = spans.clock()
        while True:
            traced = bool(args.trace) and len(runs) % 2 == 1
            before = spans.clock()
            runs.append(workload.invoke(traced))
            last = spans.clock() - before
            have_traced = not args.trace or any(r["kind"] == "traced" for r in runs)
            if have_traced and len(runs) >= 2 and spans.clock() - started + last > args.seconds:
                break
        # Long invocations leave few set-up samples; top them up cheaply.
        while len(runs) < MIN_SETUP_SAMPLES:
            runs.append(workload.invoke_setup())
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    for run in runs:
        for error in run["errors"]:
            print(f"check failed ({run['kind']} invocation): {error}", file=sys.stderr)
    failed = sum(1 for r in runs if r["errors"])
    good = [r for r in runs if not r["errors"]]
    full = [r["measures"] for r in good if r["kind"] == "full"]
    traced = [r["layers"] for r in good if r["kind"] == "traced"]
    setups = [r["measures"]["setup_s"] for r in good if r["kind"] != "traced"]
    metrics: dict = {}
    if full:
        e2e = _print_table(
            f"end-to-end ({len(full)} untraced invocations; setup_s over {len(setups)})",
            [
                (name, unit, setups if name == "setup_s" else [m[name] for m in full])
                for name, unit in END_TO_END
            ],
        )
        metrics = {name: e2e[name] for name, _ in END_TO_END[:GATED]}
    if args.trace:
        metrics = {}
        if traced and full:
            base = statistics.median(m["run_s"] for m in full)
            for layers in traced:
                layers["trace.overhead_s"] = layers["trace.run_s"] - base
            if any(abs(t["trace.unaccounted_s"]) > abs(t["trace.overhead_s"]) + 1e-3 for t in traced):
                print("check failed: layer self times do not account for the traced run", file=sys.stderr)
                failed += 1
            metrics = _print_table(
                f"per layer ({len(traced)} traced invocations)",
                [(name, _layer_unit(name), [t[name] for t in traced]) for name in sorted(traced[0])],
            )
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
