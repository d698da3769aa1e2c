"""Hypothesis strategies and checks shared by the property tests.

Kept out of conftest.py, which the benchmark harness imports: importing
Hypothesis there would grow the harness, and with it the peak RSS the
benchmark reads from the processes it starts.
"""

from hypothesis import strategies as st

from sastsieve.report import PlanSummary, Report, render_json, render_text

# Any character, lone surrogates (which UTF-8 cannot encode) included. They
# are drawn on their own: as a small share of all code points they would
# almost never come up.
any_char = st.characters() | st.characters(categories=["Cs"])
any_text = st.text(any_char)

# Any value json.dumps can write, NaN and infinities included.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | any_text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(any_char, max_size=8), inner, max_size=4),
    max_leaves=12,
)

# The plan summary of a default run over a saved scan.
PLAN = PlanSummary(
    target_root=None, scan_json="scan.json", scanner_cmd="semgrep",
    batch_size=15, parallelism=4, fail_open_enabled=True, ground_truth=None, baseline=None,
    model_id="", match_any_cwe=False, scanner_finding_count=0, skipped_results=0,
)


def assert_renders(filtered) -> None:
    """A report holding these filtered findings renders as JSON and as UTF-8 text."""
    filtered = tuple(filtered)
    report = Report(
        plan=PLAN,
        retained=tuple(ff for ff in filtered if ff.verdict.retained),
        suppressed=tuple(ff for ff in filtered if not ff.verdict.retained),
        scorecard=None,
        baseline_deltas=None,
    )
    render_json(report)
    render_text(report, max_retained=len(filtered), max_suppressed=len(filtered)).encode("utf-8")
