"""sastsieve: LLM-backed triage for static-analysis security findings.

A scanner produces candidate findings; a contextual LLM reviewer decides
per finding whether to retain or suppress it, with a conservative fail-open
policy on every failure mode; retained findings are scored against
benchmark ground truth.
"""

from .benchmark import GroundTruth, GroundTruthEntry, load_ground_truth, summarize_distribution
from .filter_agent import (
    Batch,
    BatchOutcome,
    FilterStats,
    LlmRequest,
    filter_findings,
    partition_batches,
)
from .ingest import CweMappingTable, RawFinding, dedupe_by_testcase, normalize, parse_scanner_output
from .model import (
    Classification,
    CweCategory,
    FailOpenCause,
    FilteredFinding,
    Finding,
    Provenance,
    Severity,
    TestCaseId,
    Verdict,
    test_id_from_path,
)
from .pipeline import EvidenceProvider, MissionPlan, MissionResult, plan_mission, run_mission
from .scoring import (
    ConfusionMatrix,
    CweScorecard,
    Delta,
    MetricSet,
    compare,
    compute_metrics,
    score,
    score_per_cwe,
)

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "BatchOutcome",
    "Classification",
    "ConfusionMatrix",
    "CweCategory",
    "CweMappingTable",
    "CweScorecard",
    "Delta",
    "EvidenceProvider",
    "FailOpenCause",
    "FilterStats",
    "FilteredFinding",
    "Finding",
    "GroundTruth",
    "GroundTruthEntry",
    "LlmRequest",
    "MetricSet",
    "MissionPlan",
    "MissionResult",
    "Provenance",
    "RawFinding",
    "Severity",
    "TestCaseId",
    "Verdict",
    "compare",
    "compute_metrics",
    "dedupe_by_testcase",
    "filter_findings",
    "load_ground_truth",
    "normalize",
    "parse_scanner_output",
    "partition_batches",
    "plan_mission",
    "run_mission",
    "score",
    "score_per_cwe",
    "summarize_distribution",
    "test_id_from_path",
]
