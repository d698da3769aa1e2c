"""The benchmark harness's probes still attach to the program.

``perfbench/spans.py`` wraps program functions by name and signature. A
renamed or reshaped one would otherwise show only in a traced benchmark
run. ``Probe.install`` rebinds module globals, so the run happens in a
fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

from tests.test_pipeline import benchmark_results, saved_scan

REPO = Path(__file__).resolve().parent.parent

TRACED_RUN = """
import sys

import spans
import workloads  # noqa: F401  (its imports of the program must resolve)
from sastsieve import cli

probe = spans.Probe(traced=True)
probe.install()
code = probe.run_cli(cli.main, sys.argv[1:])
assert code == 0, code
batches = probe.layer_metrics()["filter_agent.batches"]
assert batches == 1, batches
"""


def test_traced_run_installs_every_probe(tmp_path):
    scan = saved_scan(tmp_path, benchmark_results(1))
    path = os.pathsep.join(str(p) for p in (REPO / "perfbench", REPO / "src", REPO))
    proc = subprocess.run(
        [
            sys.executable, "-c", TRACED_RUN,
            "run",
            "--scan-json", scan,
            "--out-json", str(tmp_path / "r.json"),
            "--out-text", str(tmp_path / "r.txt"),
        ],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
