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
    # bench/run.py reports also count attempted and failed steps
    return {"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
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


def test_a_failed_run_is_named_and_the_other_pairs_are_kept(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    names = [m["name"] for m in bench_pairs.json.loads(bench_pairs.BENCHMARK.read_text())
             ["end_to_end"]]

    def path(checkout, seed):
        return checkout / ".bench_data" / "runs" / f"w-s{seed}-trace0.json"

    # a report an earlier run of seed 2 left behind must not be read
    path(change, 2).parent.mkdir(parents=True)
    path(change, 2).write_text("{}")
    ran = []

    def fake_run(cmd, cwd, **kwargs):
        seed = int(cmd[cmd.index("--seed") + 1])
        ran.append((cwd.name, seed))
        assert "check" not in kwargs or not kwargs["check"]
        if (cwd, seed) == (change, 2):
            return bench_pairs.subprocess.CompletedProcess(cmd, 1)
        value = 10.0 if cwd == parent else 9.0
        report = {"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {n: {"value": value} for n in names}}
        path(cwd, seed).parent.mkdir(parents=True, exist_ok=True)
        path(cwd, seed).write_text(bench_pairs.json.dumps(report))
        return bench_pairs.subprocess.CompletedProcess(cmd, 0)

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--seeds", "1-3"]) == 0
    # alternating order, and seed 3 still runs after seed 2's failure
    assert ran == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
                   ("parent", 3), ("change", 3)]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "failed: seed 2 change (exit 1)"
    assert "  seed 2:" not in "\n".join(lines)
    assert lines[1:5] == ["step_ms_p50 (lower is better)", "  seed 1: 10 -> 9 (-10.0%)",
                          "  seed 3: 10 -> 9 (-10.0%)",
                          "  median 10 [10, 10] -> 9 (-10.0%), change better in 2 of 2,"
                          " median moved beyond the parent's quartiles"]
    assert not path(change, 2).exists()


def test_no_finished_pair():
    pairs = [(1, {"exit_code": 2}, report(1.0))]
    assert bench_pairs.summarize(pairs, METRICS) == ["failed: seed 1 parent (exit 2)",
                                                     "no pair with two finished runs"]
