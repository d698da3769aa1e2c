import math
import random
from dataclasses import astuple

import pytest

from sastsieve.benchmark import GroundTruth, GroundTruthEntry, load_ground_truth
from sastsieve.model import ConfigError, CweCategory, TestCaseId
from sastsieve.scoring import (
    ConfusionMatrix,
    CweScorecard,
    MetricSet,
    compare,
    compute_metrics,
    load_detections,
    round_display,
    score_per_cwe,
    serialize_detections,
)
from tests.conftest import BASELINE_OVERALL, PIPELINE_OVERALL, TOTAL_SAFE, TOTAL_VULNERABLE


def approx3(value, expected):
    return value is not None and abs(round_display(value) - expected) < 1e-9


def test_compute_metrics_published_pipeline_row():
    metrics = compute_metrics(ConfusionMatrix(*PIPELINE_OVERALL))
    assert approx3(metrics.precision, 0.951)
    assert approx3(metrics.recall, 0.871)
    assert approx3(metrics.f1, 0.909)
    assert approx3(metrics.fpr, 0.048)
    assert approx3(metrics.youden_j, 0.823)


def test_compute_metrics_published_baseline_row():
    metrics = compute_metrics(ConfusionMatrix(*BASELINE_OVERALL))
    # The published precision cell (0.695) is a double rounding of
    # 1273/1833 = 0.69449; the computed value is the authoritative one.
    assert abs(metrics.precision - 1273 / 1833) < 1e-12
    assert approx3(metrics.recall, 0.900)
    assert approx3(metrics.f1, 0.784)
    assert approx3(metrics.fpr, 0.423)
    assert approx3(metrics.youden_j, 0.477)


def test_compute_metrics_perfect_classifier():
    metrics = compute_metrics(ConfusionMatrix(5, 0, 7, 0))
    assert (metrics.precision, metrics.recall, metrics.f1) == (1.0, 1.0, 1.0)
    assert metrics.fpr == 0.0 and metrics.youden_j == 1.0


def test_compute_metrics_zero_denominators_are_absent():
    metrics = compute_metrics(ConfusionMatrix(0, 0, 10, 0))
    assert metrics.precision is None
    assert metrics.recall is None
    assert metrics.f1 is None
    assert metrics.fpr == 0.0
    assert metrics.youden_j is None


def test_compute_metrics_f1_absent_when_both_parents_zero():
    metrics = compute_metrics(ConfusionMatrix(0, 3, 2, 4))
    assert metrics.precision == 0.0 and metrics.recall == 0.0
    assert metrics.f1 is None


def test_compute_metrics_f1_identity():
    # Independent reimplementation of the harmonic mean, checked on a grid.
    for tp in (0, 1, 7, 50):
        for fp in (0, 2, 9):
            for fn in (0, 3, 11):
                metrics = compute_metrics(ConfusionMatrix(tp, fp, 5, fn))
                p, r = metrics.precision, metrics.recall
                if p is None or r is None or p + r == 0:
                    assert metrics.f1 is None
                else:
                    assert math.isclose(metrics.f1, 2 * p * r / (p + r), rel_tol=1e-12)
                    assert metrics.f1 <= max(p, r) + 1e-12


def test_metric_bounds_on_random_matrices():
    rng = random.Random(33)
    for _ in range(500):
        cm = ConfusionMatrix(
            rng.randint(0, 50), rng.randint(0, 50), rng.randint(0, 50), rng.randint(0, 50)
        )
        metrics = compute_metrics(cm)
        for value in (metrics.precision, metrics.recall, metrics.f1, metrics.fpr):
            assert value is None or 0.0 <= value <= 1.0
        assert metrics.youden_j is None or -1.0 <= metrics.youden_j <= 1.0


def test_score_published_pipeline_detections(ground_truth, pipeline_detections):
    cm = score_per_cwe(pipeline_detections, ground_truth).overall[0]
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == PIPELINE_OVERALL


def test_score_published_baseline_detections(ground_truth, baseline_detections):
    cm = score_per_cwe(baseline_detections, ground_truth).overall[0]
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == BASELINE_OVERALL


def test_score_empty_detections(ground_truth):
    cm = score_per_cwe(set(), ground_truth).overall[0]
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (0, 0, TOTAL_SAFE, TOTAL_VULNERABLE)


def test_score_ignores_pairs_absent_from_ground_truth(caplog):
    gt = load_ground_truth("BenchmarkTest00001,sqli,true,89\n")
    detections = {
        (TestCaseId("BenchmarkTest00001"), 89),
        (TestCaseId("BenchmarkTest09999"), 89),
    }
    cm = score_per_cwe(detections, gt).overall[0]
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (1, 0, 0, 0)
    caplog.clear()
    with caplog.at_level("INFO", logger="sastsieve.scoring"):
        score_per_cwe(detections, gt)
    assert [r.getMessage() for r in caplog.records] == [
        "ignoring 1 detection pairs absent from the ground truth"
    ]


def test_score_requires_cwe_match_by_default():
    gt = load_ground_truth("BenchmarkTest00001,sqli,true,89\n")
    wrong_cwe = {(TestCaseId("BenchmarkTest00001"), 79)}
    assert score_per_cwe(wrong_cwe, gt).overall[0].tp == 0
    assert score_per_cwe(wrong_cwe, gt, match_any_cwe=True).overall[0].tp == 1


def _random_gt(rng: random.Random, max_entries: int = 50, codes=(22, 79, 89, 330)) -> GroundTruth:
    entries = {}
    for n in rng.sample(range(1, 200), rng.randint(1, max_entries)):
        tid = TestCaseId(f"BenchmarkTest{n:05d}")
        entries[tid] = GroundTruthEntry(
            test_id=tid,
            is_vulnerable=rng.random() < 0.5,
            cwe=CweCategory(rng.choice(codes)),
        )
    return entries


def _brute_force(detections, entries, match_any_cwe=False) -> tuple[int, int, int, int]:
    # Independent oracle: classify each entry through the four branches.
    tp = fp = tn = fn = 0
    for entry in entries:
        detected = any(
            tid == entry.test_id and (match_any_cwe or code == entry.cwe.code) for tid, code in detections
        )
        if entry.is_vulnerable and detected:
            tp += 1
        elif entry.is_vulnerable and not detected:
            fn += 1
        elif not entry.is_vulnerable and detected:
            fp += 1
        else:
            tn += 1
    return tp, fp, tn, fn


def test_score_matches_brute_force_oracle():
    rng = random.Random(2024)
    for _ in range(1000):
        gt = _random_gt(rng)
        detections = set()
        for entry in gt.values():
            if rng.random() < 0.5:
                code = entry.cwe.code if rng.random() < 0.7 else rng.choice([22, 79, 89, 330])
                detections.add((entry.test_id, code))
        cm = score_per_cwe(detections, gt).overall[0]
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == _brute_force(detections, gt.values())
        assert cm.total == len(gt)


@pytest.mark.parametrize("match_any_cwe", [False, True])
def test_per_cwe_matrices_match_brute_force_counts(match_any_cwe):
    rng = random.Random(3030)
    codes = (0, 22, 79, 89, 330)
    for _ in range(300):
        gt = _random_gt(rng, codes=codes)
        # Ids 200-299 are never in the ground truth; codes are often another entry's CWE.
        detections = {
            (TestCaseId(f"BenchmarkTest{n:05d}"), rng.choice(codes + (9999,)))
            for n in rng.sample(range(1, 300), rng.randint(0, 60))
        }
        card = score_per_cwe(detections, gt, match_any_cwe=match_any_cwe)
        entries = list(gt.values())
        assert list(card.per_cwe) == sorted({e.cwe.code for e in entries})
        for code, (cm, metrics) in card.per_cwe.items():
            in_cwe = [e for e in entries if e.cwe.code == code]
            assert astuple(cm) == _brute_force(detections, in_cwe, match_any_cwe)
            assert metrics == compute_metrics(cm)
        assert astuple(card.overall[0]) == _brute_force(detections, entries, match_any_cwe)
        assert card.overall[1] == compute_metrics(card.overall[0])


def test_per_cwe_matrices_sum_to_overall(ground_truth, pipeline_detections):
    card = score_per_cwe(pipeline_detections, ground_truth)
    summed = ConfusionMatrix(0, 0, 0, 0)
    for cm, _ in card.per_cwe.values():
        summed = summed + cm
    assert summed == card.overall[0]


def test_per_cwe_published_pipeline_sql_injection_row(ground_truth, pipeline_detections):
    card = score_per_cwe(pipeline_detections, ground_truth)
    _, metrics = card.per_cwe[89]
    assert approx3(metrics.precision, 0.951)
    assert approx3(metrics.recall, 0.930)
    assert approx3(metrics.f1, 0.941)


def test_per_cwe_published_baseline_path_traversal_row(ground_truth, baseline_detections):
    card = score_per_cwe(baseline_detections, ground_truth)
    _, metrics = card.per_cwe[22]
    assert approx3(metrics.precision, 0.531)
    assert approx3(metrics.recall, 0.902)
    assert approx3(metrics.f1, 0.669)


def test_per_cwe_single_category_equals_overall():
    gt = load_ground_truth("BenchmarkTest00001,sqli,true,89\nBenchmarkTest00002,sqli,false,89\n")
    card = score_per_cwe({(TestCaseId("BenchmarkTest00001"), 89)}, gt)
    assert list(card.per_cwe) == [89]
    assert card.per_cwe[89][0] == card.overall[0]


def test_score_monotonicity_under_detection_removal():
    rng = random.Random(99)
    for _ in range(200):
        gt = _random_gt(rng, max_entries=20)
        detections = {
            (e.test_id, e.cwe.code) for e in gt.values() if rng.random() < 0.6
        }
        cm = score_per_cwe(detections, gt).overall[0]
        if not detections:
            continue
        smaller = set(detections)
        smaller.remove(rng.choice(sorted(smaller)))
        cm2 = score_per_cwe(smaller, gt).overall[0]
        assert cm2.tp <= cm.tp and cm2.fp <= cm.fp
        assert cm2.fn >= cm.fn and cm2.tn >= cm.tn


def _fixture_card(f1_by_cwe: dict[int, float], overall_f1: float) -> CweScorecard:
    placeholder = ConfusionMatrix(0, 0, 0, 0)

    def metrics(f1: float) -> MetricSet:
        return MetricSet(precision=None, recall=None, f1=f1, fpr=None, youden_j=None)

    return CweScorecard(
        per_cwe={code: (placeholder, metrics(f1)) for code, f1 in f1_by_cwe.items()},
        overall=(placeholder, metrics(overall_f1)),
    )


def test_compare_published_xpath_injection_delta():
    baseline = _fixture_card({643: 0.667}, 0.784)
    candidate = _fixture_card({643: 0.933}, 0.909)
    comparison = compare(baseline, candidate)
    delta = comparison.per_cwe[643]
    assert abs(delta.f1_abs - 0.266) < 1e-9
    assert abs(delta.f1_rel * 100 - 39.9) < 0.1


def test_compare_overall_published_relative_improvement(
    ground_truth, pipeline_detections, baseline_detections
):
    baseline = score_per_cwe(baseline_detections, ground_truth)
    candidate = score_per_cwe(pipeline_detections, ground_truth)
    overall = compare(baseline, candidate).overall
    assert abs(overall.f1_rel * 100 - 16.0) < 0.1


def test_compare_identical_scorecards_gives_zero_deltas(ground_truth, pipeline_detections):
    card = score_per_cwe(pipeline_detections, ground_truth)
    comparison = compare(card, card)
    assert comparison.overall.f1_abs == 0.0
    assert all(d.f1_abs == 0.0 for d in comparison.per_cwe.values())


def test_compare_rejects_mismatched_cwe_sets():
    with pytest.raises(ValueError, match="different CWE sets"):
        compare(_fixture_card({22: 0.5}, 0.5), _fixture_card({79: 0.5}, 0.5))


def test_compare_handles_absent_f1():
    absent = MetricSet(None, None, None, None, None)
    placeholder = ConfusionMatrix(0, 0, 0, 0)
    baseline = CweScorecard(per_cwe={22: (placeholder, absent)}, overall=(placeholder, absent))
    candidate = _fixture_card({22: 0.9}, 0.9)
    comparison = compare(baseline, candidate)
    assert comparison.per_cwe[22] is None and comparison.overall is None


def test_round_display_uses_half_up():
    assert round_display(0.9405) == 0.941
    assert round_display(0.6685) == 0.669
    assert round_display(0.0485) == 0.049
    assert round_display(0.8235, 3) == 0.824


def test_detections_round_trip(pipeline_detections):
    payload = serialize_detections(pipeline_detections)
    assert load_detections(payload.decode()) == pipeline_detections


def test_load_detections_rejects_malformed_lines():
    with pytest.raises(ConfigError, match="line 1"):
        load_detections("BenchmarkTest00001 89\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_detections("BenchmarkTest00001,89\nBenchmarkTest00002,eighty\n")


def test_load_detections_refuses_a_negative_cwe_code():
    with pytest.raises(ConfigError, match="^line 2: .*non-negative"):
        load_detections("BenchmarkTest00001,89\nBenchmarkTest00002,-89\n")
