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


def test_incorrect_runs_leave_their_pairs_out():
    # seed 2's change run failed a step, and its figures must not count
    pairs = [(1, report(10.0), report(9.0)), (2, report(10.0), report(1.0, correct=False)),
             (3, report(12.0), report(11.0))]
    lines = bench_pairs.summarize(pairs, METRICS[:1])
    assert lines[:2] == ["not correct: seed 2 change",
                         "failed steps of finished runs: parent 0 of 30 (0.0%),"
                         " change 1 of 30 (3.3%)"]
    assert "  seed 2:" not in "\n".join(lines)
    assert lines[-1] == "  median 11 [10.5, 11.5] -> 10 (-9.1%), change better in 2 of 2"
    result = bench_pairs.compare(pairs, METRICS[:1])
    assert result["left_out"] == [2]
    assert result["metrics"][0]["seeds"] == [1, 3]


def test_json_writes_the_comparison(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    metrics = bench_pairs.json.loads(bench_pairs.BENCHMARK.read_text())["end_to_end"]
    threads = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

    def fake_run(cmd, cwd, **kwargs):
        if cmd[0] == "git":   # the commit lookup: the parent is no work tree, the change clean
            return bench_pairs.subprocess.CompletedProcess(
                cmd, 128 if cwd == parent else 0,
                stdout="abc123\n" if cwd == change and "rev-parse" in cmd else "")
        seed = int(cmd[cmd.index("--seed") + 1])
        value = (10.0 if cwd == parent else 8.0) + seed
        report = {"correct": True, "attempted": 10, "failed": 0,
                  "env": {"threads": threads, "stad": str(cwd / "src" / "stad")},
                  "metrics": {m["name"]: {"value": value} for m in metrics}}
        path = cwd / ".bench_data" / "runs" / f"w-s{seed}-trace0.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(bench_pairs.json.dumps(report))
        return bench_pairs.subprocess.CompletedProcess(cmd, 0)

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--workload", "w", "--seeds", "1-3", "--json", str(out)]
    assert bench_pairs.main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    written = bench_pairs.json.loads(out.read_text())
    assert written["workload"] == "w" and written["seeds"] == [1, 2, 3]
    assert written["commits"] == {"parent": None, "change": "abc123"}
    assert [(r["seed"], r["side"]) for r in written["runs"]] == [
        (1, "parent"), (1, "change"), (2, "parent"), (2, "change"), (3, "parent"), (3, "change")]
    assert all(r["env"] == {"threads": threads, "stad": "src/stad"} and r["correct"]
               for r in written["runs"])
    assert written["left_out"] == []
    assert written["failed_steps"]["change"] == {"failed": 0, "attempted": 30, "share": 0.0}
    step = written["metrics"][0]
    assert step["name"] == "step_ms_p50" and step["unit"] == "ms"
    assert (step["parent"], step["change"]) == ([11.0, 12.0, 13.0], [9.0, 10.0, 11.0])
    assert (step["parent_median"], step["parent_q1"], step["parent_q3"]) == (12.0, 11.5, 12.5)
    assert step["change_median"] == 10.0
    assert (step["change_better_in"], step["pairs"], step["beyond_quartiles"]) == (3, 3, True)
    # the file holds what was printed
    assert printed[:5] == ["step_ms_p50 (lower is better)", "  seed 1: 11 -> 9 (-18.2%)",
                           "  seed 2: 12 -> 10 (-16.7%)", "  seed 3: 13 -> 11 (-15.4%)",
                           "  median 12 [11.5, 12.5] -> 10 (-16.7%), change better in 3 of 3,"
                           " median moved beyond the parent's quartiles"]
    assert len(written["metrics"]) == len(metrics)


def test_commit_marks_an_uncommitted_tree_dirty(tmp_path):
    def git(*args):
        return bench_pairs.subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=tmp_path,
            capture_output=True, text=True, check=True).stdout.strip()

    git("init", "-q")
    (tmp_path / "a.py").write_text("x = 1\n")
    git("add", "a.py")
    git("commit", "-q", "-m", "a")
    head = git("rev-parse", "HEAD")
    (tmp_path / "new.py").write_text("")   # untracked files leave the tree clean
    assert bench_pairs.commit(tmp_path) == head
    (tmp_path / "a.py").write_text("x = 2\n")
    assert bench_pairs.commit(tmp_path) == head + "+dirty"
