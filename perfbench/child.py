"""One sastsieve invocation in a fresh interpreter, with probes attached.

Usage: python3 perfbench/child.py SPEC_JSON

The spec gives the CLI arguments (``argv``), the source directory to import
the program from (``src``), the CPU to run on (``cpu``), whether to trace
(``trace``), the fake model
that answers the scripted backend in-process (``fake_model``, or null),
whether to stop once set-up is done (``setup_only``) and where to write
the result (``result``). The program runs unmodified
through ``sastsieve.cli.main``; a user pays its imports and set-up once per
invocation, so each timed run is one of these processes.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    os.sched_setaffinity(0, {spec["cpu"]})
    sys.path.insert(0, spec["src"])
    from sastsieve import backends, cli

    import spans

    fake_calls = {"attempts": 0, "model_s": 0.0}
    if spec.get("fake_model"):
        import fakemodel

        model = fakemodel.FakeModel.from_spec(spec["fake_model"])
        lock = threading.Lock()

        def complete(self, request):
            text, latency, _ = model.answer(request.system_text, request.user_text)
            with lock:
                fake_calls["attempts"] += 1
                fake_calls["model_s"] += latency
            fakemodel.sleep(latency)
            return text

        # The scripted backend stands in for a model in the same process.
        backends.ScriptedBackend.complete = complete

    probe = spans.Probe(traced=spec["trace"], setup_only=spec["setup_only"])
    probe.install()
    exit_code = probe.run_cli(cli.main, spec["argv"])
    result = {
        "exit_code": exit_code,
        "run_started": probe.run_started,
        "run_ended": probe.run_ended,
        "prompt_bytes": probe.prompt_bytes,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "fake_model": fake_calls,
        "layers": probe.layer_metrics() if spec["trace"] else None,
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
