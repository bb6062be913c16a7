"""Workload table of the benchmark.

Standard library only, so the orchestrator can read it without importing
numpy. A workload fixes the stream (geometry, sizes, length), the tracker
and its configuration, and how many workload processes one run starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# Every workload process runs with one BLAS thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# p90 needs ten samples beyond it.
MIN_TIMED_STEPS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    model: str                 # "vmf" | "gauss"
    stream: str                # "shift" | "euclidean" | "plane"
    d: int
    k: int
    n: int                     # samples per step
    steps: int                 # stream length
    processes: int             # workload processes per untraced run
    nominal_step_s: float      # wall time per step on a 2-core Xeon VM, with scoring and probe
    probe_ref_s: float         # time of probe.Probe at these sizes on that VM, unloaded
    config: dict = field(default_factory=dict)  # extra tracker settings

    def passes(self, seconds: float) -> int:
        """Passes over the stream per process, so a run lasts about `seconds`."""
        per_pass = self.processes * self.steps * self.nominal_step_s
        return max(1, round(seconds / per_pass))


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="vmf-d512-shift",
            model="vmf", stream="shift", d=512, k=10, n=200,
            steps=100, processes=4, nominal_step_s=0.01, probe_ref_s=0.00155,
            config={"learn_kappa_ems": True},
        ),
        Workload(
            name="vmf-d2048-k1000",
            model="vmf", stream="plane", d=2048, k=1000, n=64,
            steps=28, processes=4, nominal_step_s=0.33, probe_ref_s=0.0245,
        ),
        Workload(
            name="gauss-d64",
            model="gauss", stream="euclidean", d=64, k=10, n=200,
            steps=80, processes=4, nominal_step_s=0.05, probe_ref_s=0.0015,
        ),
        Workload(
            name="gauss-d64-mstep",
            model="gauss", stream="euclidean", d=64, k=10, n=200,
            steps=64, processes=4, nominal_step_s=0.065, probe_ref_s=0.0015,
            config={"learn_transition": True, "learn_sigmas": True},
        ),
    )
}

# Shrunken copies for the self-tests: same code paths, seconds to run.
TINY = {
    "vmf-d512-shift": dict(d=32, k=4, n=40),
    "vmf-d2048-k1000": dict(d=64, k=20, n=16),
    "gauss-d64": dict(d=8, k=3, n=30),
    "gauss-d64-mstep": dict(d=8, k=3, n=30),
}


def get(name: str, tiny: bool = False) -> Workload:
    workload = WORKLOADS[name]
    if tiny:
        workload = replace(workload, steps=6, processes=2, **TINY[name])
    return workload
