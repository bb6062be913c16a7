"""The summarizer of tools/bench_pairs.py on synthetic reports; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "step_ms_p50", "better": "lower"}, {"name": "accuracy", "better": "higher"}]


def report(step_ms, accuracy=1.0, correct=True):
    return {"correct": correct,
            "metrics": {"step_ms_p50": {"value": step_ms, "unit": "ms"},
                        "accuracy": {"value": accuracy, "unit": "fraction"}}}


def test_medians_quartiles_and_wins():
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [8.0, 12.0, 9.0, 14.0, 7.0]
    pairs = [(301 + i, report(old), report(new, accuracy=0.9 if i == 0 else 1.0))
             for i, (old, new) in enumerate(zip(parent, change))]
    lines = bench_pairs.summarize(pairs, METRICS)
    assert lines[0] == "step_ms_p50 (lower is better)"
    assert lines[1] == "  seed 301: 10 -> 8 (-20.0%)"
    # parent quartiles of 9..13 are 10 and 12; the median moved by 2, not beyond 2
    assert lines[6] == "  median 11 [10, 12] -> 9 (-18.2%), change better in 3 of 5"
    assert lines[7] == "accuracy (higher is better)"
    assert lines[8] == "  seed 301: 1 -> 0.9 (-10.0%)"
    # equal accuracies are ties, which count for neither side
    assert lines[-1] == "  median 1 [1, 1] -> 1 (+0.0%), change better in 0 of 5"


def test_a_shift_beyond_the_quartiles_is_named():
    pairs = [(s, report(20.0 + 0.1 * s), report(15.0)) for s in range(4)]
    lines = bench_pairs.summarize(pairs, METRICS[:1])
    assert lines[-1].endswith("change better in 4 of 4, median moved beyond the parent's quartiles")


def test_incorrect_runs_come_first():
    pairs = [(7, report(1.0), report(1.0, correct=False)), (8, report(1.0, correct=False),
                                                             report(1.0))]
    lines = bench_pairs.summarize(pairs, METRICS[:1])
    assert lines[:2] == ["not correct: seed 7 change", "not correct: seed 8 parent"]


@pytest.mark.parametrize("text, seeds", [("301-304", [301, 302, 303, 304]), ("5,9", [5, 9]),
                                         ("12", [12])])
def test_parse_seeds(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds
