"""Compare two checkouts on one benchmark workload, in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload NAME --seeds 301-310
        [--seconds 16] [--json PATH]

For each seed it runs the untraced benchmark (`bench/run.py --trace 0`)
once in each checkout, the parent first on the first seed and the order
swapped on every next seed, and reads the report each run writes to
`.bench_data/runs/<workload>-s<seed>-trace0.json` in its checkout. Then,
for every end-to-end metric of `BENCHMARK.json`, it prints the per-seed
values and change, the parent's median with its quartiles, the change's
median, and in how many pairs the change was better (ties count for
neither side). A run that exited non-zero is named first, with its exit
code, and so is a run whose report says it was not correct (a failed
step, or answers that differ between passes); such a run leaves its pair
out of the comparison, and the next seeds still run. When a finished run
was not correct, each side's share of failed steps over its finished runs
follows. `--json PATH` also writes all of this to PATH, with the commit
of each checkout (marked `+dirty` when a tracked file differs from it)
and each run's environment (its BLAS thread pins among it). `--seeds`
takes a range `A-B` or a comma list. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """`301-310` or `301,305,309` as a list of seeds."""
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in a checkout; returns its report, or
    {"exit_code": code} when the run exits non-zero. (A report has a
    `failed` key of its own, the count of failed steps.) The package
    directory the run imported, `env.stad`, is given relative to the
    checkout when it lies inside it."""
    report = checkout / ".bench_data" / "runs" / f"{workload}-s{seed}-trace0.json"
    report.unlink(missing_ok=True)  # a report left by an earlier run of this seed
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, stdout=subprocess.DEVNULL)
    if done.returncode:
        return {"exit_code": done.returncode}
    result = json.loads(report.read_text())
    stad = result.get("env", {}).get("stad")
    if stad and Path(stad).resolve().is_relative_to(checkout.resolve()):
        result["env"]["stad"] = str(Path(stad).resolve().relative_to(checkout.resolve()))
    return result


def compare(pairs: list[tuple[int, dict, dict]], metrics: list[dict]) -> dict:
    """The comparison of (seed, parent report, change report) pairs, as data.

    metrics holds the `end_to_end` entries of BENCHMARK.json: each a
    `name` and whether `lower` or `higher` is `better`. A pair with a run
    that failed or was not correct (see `run`) is left out of every metric.
    """
    runs = [{"seed": seed, "side": side, "exit_code": report.get("exit_code"),
             **{key: report.get(key) for key in ("correct", "attempted", "failed", "env")}}
            for seed, *reports in pairs for side, report in zip(SIDES, reports)]
    shares = {}
    for side in SIDES:
        done = [r for r in runs if r["side"] == side and r["exit_code"] is None]
        attempted = sum(r["attempted"] for r in done)
        failed = sum(r["failed"] for r in done)
        shares[side] = {"failed": failed, "attempted": attempted,
                        "share": failed / attempted if attempted else 0.0}
    good = [all("exit_code" not in report and report["correct"] for report in reports)
            for _, *reports in pairs]
    kept = [pair for pair, ok in zip(pairs, good) if ok]
    out = {"runs": runs, "failed_steps": shares,
           "left_out": [pair[0] for pair, ok in zip(pairs, good) if not ok], "metrics": []}
    for metric in metrics if kept else []:
        name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
        parent = [old["metrics"][name]["value"] for _, old, _ in kept]
        change = [new["metrics"][name]["value"] for _, _, new in kept]
        old_med = statistics.median(parent)
        q1, q3 = (statistics.quantiles(parent, n=4, method="inclusive")[::2]
                  if len(parent) > 1 else (old_med, old_med))
        new_med = statistics.median(change)
        out["metrics"].append({
            "name": name, "unit": metric.get("unit"), "better": metric["better"],
            "seeds": [seed for seed, *_ in kept], "parent": parent, "change": change,
            "parent_median": old_med, "parent_q1": q1, "parent_q3": q3, "change_median": new_med,
            "change_better_in": sum(sign * (new - old) < 0 for old, new in zip(parent, change)),
            "pairs": len(kept), "beyond_quartiles": abs(new_med - old_med) > q3 - q1})
    return out


def summarize(pairs: list[tuple[int, dict, dict]], metrics: list[dict]) -> list[str]:
    """The printed comparison of (seed, parent report, change report) pairs
    (see `compare`): the failed and incorrect runs, then each metric."""
    result = compare(pairs, metrics)
    lines = []
    for run in result["runs"]:
        if run["exit_code"] is not None:
            lines.append(f"failed: seed {run['seed']} {run['side']} (exit {run['exit_code']})")
        elif not run["correct"]:
            lines.append(f"not correct: seed {run['seed']} {run['side']}")
    if any(run["exit_code"] is None and not run["correct"] for run in result["runs"]):
        lines.append("failed steps of finished runs: " + ", ".join(
            f"{side} {s['failed']} of {s['attempted']} ({100.0 * s['share']:.1f}%)"
            for side, s in result["failed_steps"].items()))
    if not result["metrics"]:
        return lines + ["no pair with two finished runs"]
    for m in result["metrics"]:
        lines.append(f"{m['name']} ({m['better']} is better)")
        for seed, old, new in zip(m["seeds"], m["parent"], m["change"]):
            lines.append(f"  seed {seed}: {old:.6g} -> {new:.6g} ({_rel(old, new)})")
        old_med, new_med = m["parent_median"], m["change_median"]
        beyond = ", median moved beyond the parent's quartiles" if m["beyond_quartiles"] else ""
        lines.append(f"  median {old_med:.6g} [{m['parent_q1']:.6g}, {m['parent_q3']:.6g}]"
                     f" -> {new_med:.6g} ({_rel(old_med, new_med)}), change better in"
                     f" {m['change_better_in']} of {m['pairs']}" + beyond)
    return lines


def commit(checkout: Path) -> str | None:
    """The commit checked out in `checkout`, with `+dirty` appended when a
    tracked file differs from it, or None outside a git work tree."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


def _rel(old: float, new: float) -> str:
    return f"{100.0 * (new - old) / old:+.1f}%" if old else "n/a"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--json", type=Path, help="also write the comparison to this file")
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
    if args.json is not None:
        result = {"workload": args.workload, "seconds": args.seconds, "seeds": args.seeds,
                  "commits": {side: commit(path) for side, path in
                              zip(SIDES, (args.parent, args.change))},
                  **compare(pairs, metrics)}
        args.json.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
