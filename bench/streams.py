"""Stream generation for the benchmark workloads.

Run as a script, it writes the workload's streams for one seed into
``DIR/0``, ``DIR/1``, ..., one per workload process of a run; the
orchestrator starts it in its own process so that generation never
touches the memory or the clock of a timed workload process::

    python3 bench/streams.py --workload gauss-d64 --seed 1 --out DIR [--tiny]

Besides the `stad` stream format, a directory holds the ground truth as
two (K, D) float64 bases, ``truth_b0.npy`` and ``truth_b1.npy``, plus the
kind of motion in ``truth.json``. The true centres at step t (1-based) are
``cos(a) b0 + sin(a) b1`` with ``a = (t - 1) * step`` for rotating sphere
streams and ``b0 + (t - 1) * b1`` for translating Euclidean streams, so the
centres at t = 1, ``b0``, are the source head of every workload.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

import workloads
from stad.mathcore import estimate_kappa
from stad.stream import (
    DriftScenario,
    EmbeddingBatch,
    make_label_shift,
    sample_vmf,
    synth_drift,
    well_separated_directions,
    write_stream,
)

TRUTH_NAME = "truth.json"
# Expected cosine of a "plane" sample with its centre. At D=2048 this gives
# kappa_true of about 675; DriftScenario's kappa_true=50 would leave the
# samples close to uniform on the sphere.
PLANE_COS = 0.3


class Truth:
    """True class centres of a stream, from its two bases."""

    def __init__(self, dirpath):
        dirpath = Path(dirpath)
        meta = json.loads((dirpath / TRUTH_NAME).read_text())
        self.kind = meta["kind"]
        self.step = float(meta["step"])
        self.b0 = np.load(dirpath / "truth_b0.npy")
        self.b1 = np.load(dirpath / "truth_b1.npy")

    def centres(self, t: int) -> np.ndarray:
        if self.kind == "rotate":
            a = (t - 1) * self.step
            return math.cos(a) * self.b0 + math.sin(a) * self.b1
        return self.b0 + (t - 1) * self.b1


def source_head(dirpath) -> np.ndarray:
    """The unadapted classifier head: the true centres at t = 1."""
    return np.load(Path(dirpath) / "truth_b0.npy")


def _write_truth(dirpath: Path, kind: str, step: float, b0, b1) -> None:
    np.save(dirpath / "truth_b0.npy", np.ascontiguousarray(b0, dtype=np.float64))
    np.save(dirpath / "truth_b1.npy", np.ascontiguousarray(b1, dtype=np.float64))
    (dirpath / TRUTH_NAME).write_text(json.dumps({"kind": kind, "step": step}))


def _synth(w: workloads.Workload, seed: int, out: Path) -> None:
    """DriftScenario defaults at the workload's sizes, through synth_drift."""
    geometry = "euclidean" if w.stream == "euclidean" else "sphere"
    scenario = DriftScenario(
        geometry=geometry, d=w.d, k=w.k, n_per_step=w.n, t_steps=w.steps, seed=seed
    )
    batches, trajectory = synth_drift(scenario)
    if w.stream == "shift":
        batches = make_label_shift(batches, seed, w.k)
    write_stream(out, batches, w.k, {"workload": w.name, "seed": str(seed)})
    # Recover the two bases synth_drift moved the centres along.
    b0 = trajectory[0]
    if geometry == "sphere":
        step = math.radians(scenario.drift_deg_per_step)
        b1 = (trajectory[1] - math.cos(step) * b0) / math.sin(step)
        kind = "rotate"
    else:
        step, b1, kind = 1.0, trajectory[1] - b0, "translate"
    _write_truth(out, kind, step, b0, b1)
    truth = Truth(out)
    rebuilt = np.stack([truth.centres(t) for t in range(1, w.steps + 1)])
    if not np.allclose(rebuilt, trajectory, rtol=0.0, atol=1e-9):
        raise RuntimeError("truth bases do not reproduce the trajectory")


def _plane(w: workloads.Workload, seed: int, out: Path) -> None:
    """Rotating vMF clusters written step by step.

    The construction of synth_drift (per-class rotation planes, uniform
    labels), without materialising the (T, K, D) trajectory.
    """
    rng = np.random.default_rng(seed)
    base = well_separated_directions(rng, w.d, w.k)
    partners = np.empty_like(base)
    for j in range(w.k):
        g = rng.standard_normal(w.d)
        g -= (g @ base[j]) * base[j]
        partners[j] = g / np.linalg.norm(g)
    kappa = float(estimate_kappa(PLANE_COS, w.d))
    step = math.radians(DriftScenario().drift_deg_per_step)

    def batches():
        for i in range(w.steps):
            labels = rng.integers(0, w.k, size=w.n).astype(np.uint32)
            feats = np.empty((w.n, w.d))
            for j in np.unique(labels):
                rows = np.flatnonzero(labels == j)
                mu = math.cos(i * step) * base[j] + math.sin(i * step) * partners[j]
                feats[rows] = sample_vmf(rng, mu, kappa, rows.size)
            yield EmbeddingBatch(i + 1, feats.astype(np.float32), labels)

    write_stream(out, batches(), w.k, {"workload": w.name, "seed": str(seed),
                                       "kappa_true": repr(kappa)})
    _write_truth(out, "rotate", step, base, partners)


def stream_seed(seed: int, index: int) -> int:
    """Seed of the index-th stream of a run with the given seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def generate(w: workloads.Workload, seed: int, out) -> None:
    out = Path(out)
    if w.stream == "plane":
        _plane(w, seed, out)
    else:
        _synth(w, seed, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    w = workloads.get(args.workload, args.tiny)
    for index in range(w.processes):
        generate(w, stream_seed(args.seed, index), Path(args.out) / str(index))
    return 0


if __name__ == "__main__":
    sys.exit(main())
