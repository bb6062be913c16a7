"""Self-tests of the benchmark: tiny workloads, tracing, failure counting.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import episode
import probe
import run
import streams
import tracing
import workloads
from stad import gauss, mathcore, vmf
from stad.stream import read_manifest, write_matrix

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, text=True,
                          capture_output=True, timeout=170)


def tiny_stream(tmp_path: Path, name: str) -> tuple[workloads.Workload, Path]:
    w = workloads.get(name, tiny=True)
    out = tmp_path / name
    streams.generate(w, 3, out)
    return w, out


def one_pass(w: workloads.Workload, stream: Path, tracer=None) -> tuple[dict, object]:
    source = streams.source_head(stream)
    model = episode.make_model(w, source)
    result = episode.run_pass(w, stream, model, source, streams.Truth(stream),
                              probe.Probe(w.d, w.k, w.n), tracer)
    return result, model


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("name", NAMES)
def test_runs_time_enough_steps_for_p90(name):
    w = workloads.WORKLOADS[name]
    config = (vmf.VmfConfig if w.model == "vmf" else gauss.GaussConfig)(d=w.d, k=w.k, **w.config)
    passes = w.passes(SPEC["run_seconds"])
    assert w.processes * passes * (w.steps - config.window) >= workloads.MIN_TIMED_STEPS


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_workload_runs(name, trace):
    proc = bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", trace,
                 "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}


def test_answers_repeat_across_runs(tmp_path):
    w, stream = tiny_stream(tmp_path, "vmf-d512-shift")
    first, _ = one_pass(w, stream)
    second, _ = one_pass(w, stream)
    assert run.answers(first) == run.answers(second)


@pytest.mark.parametrize("name", ["vmf-d512-shift", "gauss-d64-mstep"])
def test_spans_nest_with_nonnegative_self_time(tmp_path, name):
    w, stream = tiny_stream(tmp_path, name)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        result, _ = one_pass(w, stream, tracer)
    finally:
        uninstall()
    assert result["failed"] == 0
    spans = tracer.spans
    assert any(parent >= 0 for *_, parent, _ in spans)
    for name_, start, end, parent, _ in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2], name_
    assert min(tracer.self_times()) >= -1e-9
    layer = tracer.per_layer(len(result["step_s"]))
    assert layer[f"{w.model}.adapt.calls_per_step"] == pytest.approx(1.0)


@pytest.mark.parametrize("name", ["vmf-d512-shift", "gauss-d64-mstep"])
def test_wrappers_leave_prototypes_bit_identical(tmp_path, name):
    w, stream = tiny_stream(tmp_path, name)
    plain, plain_model = one_pass(w, stream)
    originals = (vmf.bessel_ratio, vmf.VmfModel.adapt, gauss.cho_factor,
                 mathcore._log_i_series)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert vmf.bessel_ratio is not originals[0]
        traced, traced_model = one_pass(w, stream, tracer)
    finally:
        uninstall()
    assert (vmf.bessel_ratio, vmf.VmfModel.adapt, gauss.cho_factor,
            mathcore._log_i_series) == originals
    assert np.array_equal(plain_model.prototypes, traced_model.prototypes)
    assert run.answers(plain) == run.answers(traced)


def test_failed_step_counts_and_stops_the_pass(tmp_path):
    w, stream = tiny_stream(tmp_path, "gauss-d64")
    entry = read_manifest(stream).steps[2]
    feats = np.ones((entry.count, w.d), dtype=np.float32)
    feats[0, 0] = np.nan
    write_matrix(stream / entry.feature_path, feats)

    result, _ = one_pass(w, stream)
    assert result["failed"] == w.steps - 2
    assert "CorruptPayloadError" in result["failure"]

    env = {"threads": {var: "1" for var in workloads.THREAD_VARS},
           "stad": str(ROOT / "src" / "stad")}
    summary = run.summarize([{"passes": [result], "env": env, "setup_s": 0.1,
                              "scaled_setup_s": 0.1, "peak_rss_mb": 1.0}],
                            2 * w.steps, traced=False)
    assert not summary["correct"]
    assert summary["failed"] == 2 * w.steps - 2
    assert summary["step_fail_frac"] == pytest.approx((w.steps - 1) / w.steps)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
