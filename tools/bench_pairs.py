"""Compare two checkouts on one benchmark workload, in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload NAME --seeds 301-310
        [--seconds 16]

For each seed it runs the untraced benchmark (`bench/run.py --trace 0`)
once in each checkout, the parent first on the first seed and the order
swapped on every next seed, and reads the report each run writes to
`.bench_data/runs/<workload>-s<seed>-trace0.json` in its checkout. Then,
for every end-to-end metric of `BENCHMARK.json`, it prints the per-seed
values and change, the parent's median with its quartiles, the change's
median, and in how many pairs the change was better (ties count for
neither side). A run whose report says it was not correct is named first,
and so is a run that exited non-zero, with its exit code; such a run
leaves its pair out of the comparison, and the next seeds still run.
`--seeds` takes a range `A-B` or a comma list. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def parse_seeds(text: str) -> list[int]:
    """`301-310` or `301,305,309` as a list of seeds."""
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in a checkout; returns its report, or
    {"exit_code": code} when the run exits non-zero. (A report has a
    `failed` key of its own, the count of failed steps.)"""
    report = checkout / ".bench_data" / "runs" / f"{workload}-s{seed}-trace0.json"
    report.unlink(missing_ok=True)  # a report left by an earlier run of this seed
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, stdout=subprocess.DEVNULL)
    if done.returncode:
        return {"exit_code": done.returncode}
    return json.loads(report.read_text())


def summarize(pairs: list[tuple[int, dict, dict]], metrics: list[dict]) -> list[str]:
    """The printed comparison of (seed, parent report, change report) pairs.

    metrics holds the `end_to_end` entries of BENCHMARK.json: each a
    `name` and whether `lower` or `higher` is `better`. A pair with a
    failed run (see `run`) is named and left out of every metric.
    """
    lines = []
    for seed, *reports in pairs:
        for side, report in zip(("parent", "change"), reports):
            if "exit_code" in report:
                lines.append(f"failed: seed {seed} {side} (exit {report['exit_code']})")
            elif not report["correct"]:
                lines.append(f"not correct: seed {seed} {side}")
    pairs = [pair for pair in pairs if not any("exit_code" in report for report in pair[1:])]
    if not pairs:
        return lines + ["no pair with two finished runs"]
    for metric in metrics:
        name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
        lines.append(f"{name} ({metric['better']} is better)")
        parent, change = [], []
        for seed, old_report, new_report in pairs:
            old = old_report["metrics"][name]["value"]
            new = new_report["metrics"][name]["value"]
            parent.append(old)
            change.append(new)
            lines.append(f"  seed {seed}: {old:.6g} -> {new:.6g} ({_rel(old, new)})")
        wins = sum(sign * (new - old) < 0 for old, new in zip(parent, change))
        old_med, new_med = statistics.median(parent), statistics.median(change)
        q1, q3 = (statistics.quantiles(parent, n=4, method="inclusive")[::2]
                  if len(parent) > 1 else (old_med, old_med))
        beyond = (", median moved beyond the parent's quartiles"
                  if abs(new_med - old_med) > q3 - q1 else "")
        lines.append(f"  median {old_med:.6g} [{q1:.6g}, {q3:.6g}] -> {new_med:.6g}"
                     f" ({_rel(old_med, new_med)}), change better in {wins} of {len(pairs)}"
                     + beyond)
    return lines


def _rel(old: float, new: float) -> str:
    return f"{100.0 * (new - old) / old:+.1f}%" if old else "n/a"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    args = parser.parse_args(argv)
    pairs = []
    for index, seed in enumerate(args.seeds):
        reports = [{}, {}]
        for side in ((0, 1) if index % 2 == 0 else (1, 0)):
            checkout = (args.parent, args.change)[side]
            reports[side] = run(checkout, args.workload, seed, args.seconds)
        pairs.append((seed, *reports))
        print(f"# seed {seed} done", file=sys.stderr)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    print("\n".join(summarize(pairs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
