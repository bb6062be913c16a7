"""Reference kernel that measures the host's speed next to each step.

On a shared 2-core VM the speed of a core drifts by up to half over tens
of seconds, as other tenants load the host. A run of a few seconds lands
in one or two such phases, so raw step times from runs with different
seeds spread by 25-40%. The probe is fixed work built from numpy and
scipy alone: a batch-by-prototypes matmul, a softmax and a K x D update
at the workload's sizes, small Cholesky solves, and a Python loop. It
never calls `stad`, so a change to `stad` moves step times but not probe
times, while a slow phase of the host moves both. Each timed step is
scaled by ``ref_s / local probe time``, where the local probe time is
the median of the probes taken around that step and `ref_s` is the
workload's probe time on an idle host.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from scipy.linalg import cho_factor, cho_solve

# Probes on each side of a step whose median is its local reference.
HALF_WINDOW = 10


class Probe:
    def __init__(self, d: int, k: int, n: int):
        rng = np.random.default_rng(0)
        self.feats = rng.standard_normal((n, d))
        self.protos = rng.standard_normal((k, d))
        spd = rng.standard_normal((64, 64))
        self.spd = spd @ spd.T + 64.0 * np.eye(64)
        self.small_feats = rng.standard_normal((200, 512))
        self.small_protos = rng.standard_normal((10, 512))

    @staticmethod
    def _softmax_update(feats: np.ndarray, protos: np.ndarray) -> np.ndarray:
        logits = 0.1 * (feats @ protos.T)
        resp = np.exp(logits - logits.max(axis=1, keepdims=True))
        resp /= resp.sum(axis=1, keepdims=True)
        total = resp.T @ feats
        norms = np.linalg.norm(total, axis=1)
        return np.where(norms[:, None] > 0.0, total / norms[:, None], protos)

    def __call__(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        start = perf_counter()
        for _ in range(4):
            cho_solve(cho_factor(self.spd, lower=True), self.spd[:, :8])
            self._softmax_update(self.small_feats, self.small_protos)
        self._softmax_update(self.feats, self.protos)
        acc = 0
        for i in range(500):
            acc += i * i
        return perf_counter() - start


def scaled(times: list[float], probes: list[float], ref_s: float) -> list[float]:
    """Each time scaled by ref_s over the median of the probes around it."""
    out = []
    for i, t in enumerate(times):
        local = statistics.median(probes[max(0, i - HALF_WINDOW):i + HALF_WINDOW + 1])
        out.append(t * ref_s / local)
    return out
