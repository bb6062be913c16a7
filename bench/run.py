"""Benchmark of the STAD vMF and Gauss trackers, one workload per call.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The streams for (workload, seed), one
per workload process, are made once by `streams.py` in a process of its
own, under `.bench_data/`, and reused. Then each workload process
(`episode.py`) runs with one BLAS thread and one closed-loop caller. An
untraced run (`--trace 0`) starts the workload's processes one after
another, each on its own stream, and reports the end-to-end metrics; a
traced run (`--trace 1`) starts one untraced and one traced process on
the first stream and reports the per-layer metrics. The last
line of stdout is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; lines before it give each metric with its unit
and the environment. A full report is written under `.bench_data/runs/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = ROOT / ".bench_data"
STREAM_SETS_KEPT = 3
DEADLINE_S = 170.0

END_TO_END = {
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "samples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "fraction",
    "proto_angle_err_deg": "deg",
    "step_ok_frac": "fraction",
}
ANSWERS = ("accuracy", "proto_angle_err_deg", "source_accuracy")


class BenchError(Exception):
    """The benchmark itself could not run."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in workloads.THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(args: list[str], deadline: float, env: dict) -> str:
    """Run a benchmark script; returns its stdout."""
    try:
        proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, text=True,
                              capture_output=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def ensure_streams(name: str, seed: int, tiny: bool, deadline: float, env: dict) -> Path:
    """Directory holding the run's streams, `0`, `1`, ... one per process."""
    w = workloads.get(name, tiny)
    streams = DATA / "streams"
    path = streams / f"{name}-d{w.d}-k{w.k}-n{w.n}-t{w.steps}-p{w.processes}-s{seed}"
    if not path.is_dir():
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        cmd = [str(HERE / "streams.py"), "--workload", name, "--seed", str(seed),
               "--out", str(tmp)] + (["--tiny"] if tiny else [])
        try:
            run_child(cmd, deadline, env)
            shutil.rmtree(path, ignore_errors=True)
            os.replace(tmp, path)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    os.utime(path)
    for old in sorted(streams.iterdir(), key=lambda p: p.stat().st_mtime)[:-STREAM_SETS_KEPT]:
        shutil.rmtree(old, ignore_errors=True)
    return path


def run_episode(name: str, stream: Path, passes: int, tiny: bool, deadline: float,
                env: dict, spans: Path | None = None) -> dict:
    cmd = [str(HERE / "episode.py"), "--workload", name, "--stream", str(stream),
           "--passes", str(passes)]
    cmd += ["--tiny"] if tiny else []
    cmd += ["--spans", str(spans)] if spans is not None else []
    # CLOCK_MONOTONIC is system-wide, so the child can subtract this reading.
    cmd += ["--spawn-time", repr(time.monotonic())]
    return json.loads(run_child(cmd, deadline, env).strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def answers(p: dict) -> tuple:
    return tuple(p[key] for key in ANSWERS)


def summarize(episodes: list[dict], planned_steps: int, traced: bool) -> dict:
    """Fold the workload processes of one run into its result."""
    passes = [p for e in episodes for p in e["passes"]]
    problems = [p["failure"] for p in passes if p["failure"]]
    ran = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes) + planned_steps - ran
    if any(answers(p) != answers(e["passes"][0]) for e in episodes for p in e["passes"]):
        problems.append("answers differ between passes over the same stream")
    # Streams are equally long, so the mean over them is the pooled figure.
    firsts = [e["passes"][0] for e in episodes]
    env = episodes[0]["env"]
    if any(env["threads"][var] != "1" for var in workloads.THREAD_VARS):
        problems.append(f"BLAS threads not pinned: {env['threads']}")
    if Path(env["stad"]).resolve() != (ROOT / "src" / "stad").resolve():
        problems.append(f"stad imported from {env['stad']}, not from this checkout")
    step_s = [s for p in passes for s in p["step_s"]]
    scaled_s = [s for p in passes for s in p["scaled_step_s"]]
    timed_samples = sum(p["timed_samples"] for p in passes)
    summary = {
        "correct": not problems and failed == 0,
        "attempted": planned_steps,
        "failed": failed,
        "problems": problems,
        "timed_steps": len(step_s),
        "env": env,
        **{key: statistics.fmean(p[key] for p in firsts) for key in ANSWERS},
        "degenerate_updates": firsts[0]["degenerate_updates"],
        "step_fail_frac": failed / planned_steps,
    }
    if len(step_s) >= 2:
        for prefix, times in (("", scaled_s), ("raw_", step_s)):
            summary[prefix + "step_ms_p50"] = 1e3 * statistics.median(times)
            summary[prefix + "step_ms_p90"] = 1e3 * percentile(times, 90)
            summary[prefix + "samples_per_s"] = timed_samples / sum(times)
        summary["probe_ms_p50"] = 1e3 * statistics.median(s for p in passes for s in p["probe_s"])
    if not traced:
        summary["setup_s"] = statistics.median(e["scaled_setup_s"] for e in episodes)
        summary["raw_setup_s"] = statistics.median(e["setup_s"] for e in episodes)
        summary["peak_rss_mb"] = statistics.median(e["peak_rss_mb"] for e in episodes)
        summary["step_ok_frac"] = 1.0 - summary["step_fail_frac"]
    return summary


def untraced(name: str, streams: Path, passes: int, tiny: bool, deadline: float,
             env: dict) -> tuple[dict, dict]:
    w = workloads.get(name, tiny)
    episodes = []
    for index in range(w.processes):
        episodes.append(run_episode(name, streams / str(index), passes, tiny, deadline, env))
        if any(p["failed"] for p in episodes[-1]["passes"]):
            break
    summary = summarize(episodes, w.processes * passes * w.steps, traced=False)
    metrics = {key: {"value": summary.get(key, 0.0), "unit": unit}
               for key, unit in END_TO_END.items()}
    return summary, metrics


def traced(name: str, streams: Path, passes: int, tiny: bool, deadline: float,
           env: dict, spans: Path) -> tuple[dict, dict]:
    w = workloads.get(name, tiny)
    stream = streams / "0"
    plain = summarize([run_episode(name, stream, passes, tiny, deadline, env)],
                      passes * w.steps, traced=True)
    episode = run_episode(name, stream, passes, tiny, deadline, env, spans)
    summary = summarize([episode], passes * w.steps, traced=True)
    if answers(summary) != answers(plain):
        summary["problems"].append("traced answers differ from untraced answers")
    summary["problems"] += plain["problems"]
    summary["correct"] = summary["correct"] and plain["correct"] and not summary["problems"]
    summary["failed"] += plain["failed"]
    summary["attempted"] += plain["attempted"]
    layer = dict(episode["per_layer"])
    layer["vmf.degenerate_updates"] = summary["degenerate_updates"] if w.model == "vmf" else 0
    layer["trace.step_ms_p50"] = summary.get("step_ms_p50", 0.0)
    layer["trace.untraced_step_ms_p50"] = plain.get("step_ms_p50", 0.0)
    layer["trace.overhead_frac"] = (layer["trace.step_ms_p50"] / plain["step_ms_p50"] - 1.0
                                    if plain.get("step_ms_p50") else 0.0)
    summary["per_layer"] = layer
    metrics = {key: {"value": value, "unit": layer_unit(key)} for key, value in layer.items()}
    return summary, metrics


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat in ("ms_per_step", "self_ms_per_step", "init_ms", "step_ms_p50",
                "untraced_step_ms_p50"):
        return "ms"
    if stat == "mb_per_step":
        return "MB"
    if stat.endswith("frac"):
        return "fraction"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to seconds (for the self-tests)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "stad" / "__init__.py").is_file():
        print(f"error: no stad package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    w = workloads.get(args.workload, args.tiny)
    passes = 1 if args.tiny else w.passes(args.seconds)
    tag = f"{args.workload}{'-tiny' if args.tiny else ''}-s{args.seed}"
    (DATA / "runs").mkdir(parents=True, exist_ok=True)
    try:
        streams = ensure_streams(args.workload, args.seed, args.tiny, deadline, env)
        if args.trace:
            summary, metrics = traced(args.workload, streams, passes, args.tiny, deadline, env,
                                      DATA / "runs" / f"{tag}.spans.jsonl")
        else:
            summary, metrics = untraced(args.workload, streams, passes, args.tiny, deadline, env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    summary.update(workload=args.workload, seed=args.seed, passes=passes, metrics=metrics)
    (DATA / "runs" / f"{tag}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1))
    for problem in summary["problems"]:
        print(f"# problem: {problem}")
    for key, m in metrics.items():
        print(f"# {key} = {m['value']:.6g} {m['unit']}")
    extra = {key: summary[key] for key in summary
             if key in ("timed_steps", "source_accuracy", "step_fail_frac", "degenerate_updates",
                        "probe_ms_p50") or key.startswith("raw_")}
    print("# " + json.dumps({"passes": passes, **extra, "env": summary["env"]}))
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
