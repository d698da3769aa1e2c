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

import pytest

from tests.test_pipeline import benchmark_results, saved_scan

REPO = Path(__file__).resolve().parent.parent

PROBED_RUN = """
import sys

import spans
import workloads  # noqa: F401  (its imports of the program must resolve)
from sastsieve import cli

traced = sys.argv[1] == "traced"
probe = spans.Probe(traced=traced)
probe.install()
code = probe.run_cli(cli.main, sys.argv[2:])
assert code == 0, code
# The run window and the per-call counter, which an untraced run reads too.
assert probe.run_started > 0, probe.run_started
assert len(probe.prompt_bytes) == 1, probe.prompt_bytes
if traced:
    layers = probe.layer_metrics()
    assert layers["filter_agent.batches"] == 1, layers
    # A probed filter function the program stopped calling would read 0 here.
    for name in ("prompt_build_s", "parse_s", "apply_s"):
        assert layers[f"filter_agent.{name}"] > 0, (name, layers)
"""


@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
def test_a_probed_run_installs_every_probe(tmp_path, traced):
    scan = saved_scan(tmp_path, benchmark_results(1))
    path = os.pathsep.join(str(p) for p in (REPO / "perfbench", REPO / "src", REPO))
    proc = subprocess.run(
        [
            sys.executable, "-c", PROBED_RUN,
            "traced" if traced else "untraced",
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
