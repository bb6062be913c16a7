"""One workload process: build a tracker, run it over a stream, score it.

The orchestrator (`run.py`) starts this script with one BLAS thread and
the checkout's `src` on PYTHONPATH::

    python3 bench/episode.py --workload NAME --stream DIR --passes P \
        --spawn-time T [--tiny] [--spans FILE]

`--spawn-time` is the CLOCK_MONOTONIC reading the parent took just before
starting this process, so `setup_s` covers interpreter start, `import
stad`, `read_manifest` and model construction. Each pass builds a fresh
model and runs every step of the stream: read the batch, `adapt`,
`predict` (timed together), then check and score outside the timing,
then time the reference kernel of `probe.py`. The result carries raw
times and times scaled to the workload's reference host speed. With
`--spans`, tracing wrappers are installed and the spans are written
to FILE. The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from time import perf_counter

import numpy as np
import scipy

import stad
import tracing
import workloads
from probe import HALF_WINDOW, Probe, scaled
from stad.gauss import GaussConfig, GaussModel
from stad.stream import read_manifest, read_stream
from stad.vmf import VmfConfig, VmfModel
from streams import Truth, source_head

CHECK_TOL = 1e-9


class CheckFailed(Exception):
    """A step's outputs broke an invariant of the trackers."""


def make_model(w: workloads.Workload, source: np.ndarray):
    if w.model == "vmf":
        return VmfModel(source, VmfConfig(d=w.d, k=w.k, **w.config))
    return GaussModel(source, GaussConfig(d=w.d, k=w.k, **w.config))


def check_step(w: workloads.Workload, model, probs: np.ndarray) -> None:
    if not np.all(np.isfinite(probs)):
        raise CheckFailed("non-finite probabilities")
    if np.max(np.abs(probs.sum(axis=1) - 1.0)) > CHECK_TOL:
        raise CheckFailed("probability rows do not sum to 1")
    mixing = model.mixing
    if abs(mixing.sum() - 1.0) > CHECK_TOL or mixing.min() < model.config.pi_floor - CHECK_TOL:
        raise CheckFailed("mixing weights off the floored simplex")
    protos = model.prototypes
    if not np.all(np.isfinite(protos)):
        raise CheckFailed("non-finite prototypes")
    if w.model == "vmf" and np.max(np.abs(np.linalg.norm(protos, axis=1) - 1.0)) > CHECK_TOL:
        raise CheckFailed("vMF prototypes are not unit rows")


def angles_deg(protos: np.ndarray, centres: np.ndarray) -> np.ndarray:
    cos = np.sum(protos * centres, axis=1) / (
        np.linalg.norm(protos, axis=1) * np.linalg.norm(centres, axis=1))
    return np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))


def span_of(tracer: tracing.Tracer | None):
    """`tracer.span`, or a no-op context for untraced runs."""
    return tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())


def run_pass(w: workloads.Workload, stream_dir, model, source: np.ndarray, truth: Truth,
             probe: Probe, tracer: tracing.Tracer | None = None) -> dict:
    """Feed every step of the stream to `model`; stop at the first failure."""
    span = span_of(tracer)
    steps = len(read_manifest(stream_dir).steps)
    step_s: list[float] = []
    probe_s: list[float] = []
    timed_samples = correct = samples = source_correct = done = 0
    angle_sum = 0.0
    failure = None
    batches = read_stream(stream_dir)
    try:
        for i in range(steps):
            timed = i >= model.config.window
            if tracer is not None:
                tracer.timed = timed
            start = perf_counter()
            with span("stream.read_stream"):
                batch = next(batches)
            model.adapt(batch.t, batch.features)
            probs, pred = model.predict(batch.features)
            elapsed = perf_counter() - start
            check_step(w, model, probs)
            if tracer is not None:
                tracer.count("stream.bytes", batch.features.nbytes + batch.labels.nbytes)
            if timed:
                step_s.append(elapsed)
                timed_samples += batch.count
            correct += int(np.sum(pred == batch.labels))
            source_correct += int(np.sum(np.argmax(batch.features @ source.T, axis=1)
                                         == batch.labels))
            samples += batch.count
            angle_sum += float(np.sum(angles_deg(model.prototypes, truth.centres(batch.t))))
            done += 1
            if timed:
                probe_s.append(probe())
    except Exception as exc:  # any failure of a step counts; the pass stops here
        failure = f"step {done + 1}: {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.timed = False
    return {
        "attempted": steps,
        "failed": steps - done,
        "failure": failure,
        "step_s": step_s,
        "scaled_step_s": scaled(step_s, probe_s, w.probe_ref_s),
        "probe_s": probe_s,
        "timed_samples": timed_samples,
        "accuracy": correct / samples if samples else 0.0,
        "source_accuracy": source_correct / samples if samples else 0.0,
        "proto_angle_err_deg": angle_sum / (done * w.k) if done else 0.0,
        "degenerate_updates": getattr(model, "degenerate_updates", 0),
    }


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in workloads.THREAD_VARS},
        "stad": os.path.dirname(stad.__file__),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--stream", required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    w = workloads.get(args.workload, args.tiny)

    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    span = span_of(tracer)
    manifest = read_manifest(args.stream)
    if (manifest.d, manifest.k) != (w.d, w.k):
        raise SystemExit(f"stream is D={manifest.d} K={manifest.k}, "
                         f"workload wants D={w.d} K={w.k}")
    source = source_head(args.stream)
    setup_s = None
    passes = []
    for _ in range(args.passes):
        with span(f"{w.model}.init"):
            model = make_model(w, source)
        if setup_s is None:
            setup_s = time.monotonic() - args.spawn_time
            truth = Truth(args.stream)
            probe = Probe(w.d, w.k, w.n)
            setup_probe_s = statistics.median(probe() for _ in range(2 * HALF_WINDOW + 1))
        passes.append(run_pass(w, args.stream, model, source, truth, probe, tracer))
        if passes[-1]["failed"]:
            break
    result = {
        "setup_s": setup_s,
        "scaled_setup_s": setup_s * w.probe_ref_s / setup_probe_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
        "env": environment(),
    }
    if tracer is not None:
        timed_steps = sum(len(p["step_s"]) for p in passes)
        result["per_layer"] = tracer.per_layer(timed_steps)
        tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
