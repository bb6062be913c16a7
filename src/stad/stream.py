"""Embedding streams: on-disk format, readers/writers, reordering, synthesis.

A stream directory holds one feature file per time step plus a JSON
manifest. Feature files carry a 16-byte header (magic ``STADEMB1``, row
count, column count, both unsigned 32-bit little-endian) followed by a
row-major float32 little-endian payload, so round trips are bit exact.
Label files are bare unsigned 32-bit little-endian arrays, one entry per
row. The manifest schema::

    {
      "format_version": 1,
      "d": 16, "k": 5,
      "steps": [{"t": 1, "features": "step_00001.emb",
                 "labels": "step_00001.lbl", "count": 200}, ...],
      "metadata": {"...": "free-form string map"}
    }

Synthetic temporal-drift generators cover both geometries: vMF clusters
whose mean directions rotate a fixed number of degrees per step inside
per-class random 2-planes, and Euclidean Gaussian clusters translated by
fixed per-class drift vectors. Ground-truth prototype trajectories are
stored alongside for tracking metrics.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
from scipy.special import betaincinv

from .errors import (
    CorruptHeaderError,
    CorruptPayloadError,
    DimensionMismatchError,
    DomainError,
    InfeasibleSeparationError,
    MissingFileError,
    MissingLabelsError,
    NonContiguousTimeError,
)
from .mathcore import normalize_rows

__all__ = [
    "MAGIC",
    "EmbeddingBatch",
    "StepEntry",
    "StreamManifest",
    "DriftScenario",
    "write_matrix",
    "read_matrix",
    "write_stream",
    "read_manifest",
    "read_stream",
    "read_trajectory",
    "read_csv_stream",
    "make_label_shift",
    "sample_vmf",
    "well_separated_directions",
    "synth_drift",
    "write_synthetic",
]

MAGIC = b"STADEMB1"
MANIFEST_NAME = "manifest.json"
TRAJECTORY_NAME = "trajectory.emb"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sII")
_SEPARATION_RETRIES = 200


@dataclass
class EmbeddingBatch:
    """One time step of the stream: features and (for scoring) labels."""

    t: int
    features: np.ndarray          # (N, D) float32
    labels: np.ndarray | None = None  # (N,) uint32 in [0, K)

    @property
    def count(self) -> int:
        return self.features.shape[0]


@dataclass
class StepEntry:
    t: int
    feature_path: str
    label_path: str | None
    count: int


@dataclass
class StreamManifest:
    format_version: int
    d: int
    k: int
    steps: list[StepEntry]
    metadata: dict[str, str] = field(default_factory=dict)


@dataclass
class DriftScenario:
    """Description of a synthetic gradually drifting stream."""

    geometry: str = "sphere"  # sphere | euclidean
    d: int = 16
    k: int = 5
    t_steps: int = 50
    n_per_step: int = 200
    kappa_true: float = 50.0
    sigma_true: float = 0.1
    drift_deg_per_step: float = 2.0
    drift_scale: float = 0.02
    label_distribution: str = "uniform"  # uniform | ordered | dirichlet:<alpha>
    seed: int = 0
    max_drift_deg: float = 10.0

    def __post_init__(self):
        if self.geometry not in ("sphere", "euclidean"):
            raise DomainError(f"unknown geometry {self.geometry!r}")
        if self.d < 2 or self.k < 1 or self.t_steps < 1 or self.n_per_step < 1:
            raise DomainError("d >= 2, k >= 1, t_steps >= 1, n_per_step >= 1 required")
        if self.kappa_true <= 0.0 or self.sigma_true <= 0.0:
            raise DomainError("spread parameters must be positive")
        if not 0.0 <= self.drift_deg_per_step <= self.max_drift_deg:
            raise DomainError(
                f"drift per step must lie in [0, {self.max_drift_deg}] degrees "
                "(gradual-shift contract)"
            )
        dist = self.label_distribution
        if dist not in ("uniform", "ordered") and not dist.startswith("dirichlet:"):
            raise DomainError(f"unknown label distribution {dist!r}")
        if dist.startswith("dirichlet:"):
            try:
                alpha = float(dist.split(":", 1)[1])
            except ValueError:
                raise DomainError(f"bad dirichlet alpha in {dist!r}") from None
            if not alpha > 0.0:
                raise DomainError("dirichlet alpha must be positive")


# -- binary payloads -------------------------------------------------------


def write_matrix(path, arr: np.ndarray) -> None:
    """Write a float32 matrix with the 16-byte header."""
    arr = np.asarray(arr, dtype="<f4")
    if arr.ndim != 2:
        raise DomainError(f"expected a 2-d array, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes(order="C"))


def read_matrix(path) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise MissingFileError(str(path))
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise CorruptHeaderError(f"{path}: truncated header")
    magic, rows, cols = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise CorruptHeaderError(f"{path}: bad magic {magic!r}")
    body = raw[_HEADER.size:]
    expected = 4 * rows * cols
    if len(body) != expected:
        raise CorruptPayloadError(
            f"{path}: payload is {len(body)} bytes, expected {expected}"
        )
    return np.frombuffer(body, dtype="<f4").reshape(rows, cols)


def _write_labels(path, labels: np.ndarray) -> None:
    np.asarray(labels, dtype="<u4").tofile(path)


def _read_labels(path, count: int) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise MissingFileError(str(path))
    raw = path.read_bytes()
    if len(raw) != 4 * count:
        raise CorruptPayloadError(
            f"{path}: label payload is {len(raw)} bytes, expected {4 * count}"
        )
    return np.frombuffer(raw, dtype="<u4").copy()


# -- stream directories ----------------------------------------------------


def write_stream(
    dirpath,
    batches: Iterable[EmbeddingBatch],
    k: int,
    metadata: dict[str, str] | None = None,
) -> StreamManifest:
    """Write batches and a manifest into a directory."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    steps: list[StepEntry] = []
    d = None
    for batch in batches:
        if d is None:
            d = batch.features.shape[1]
        elif batch.features.shape[1] != d:
            raise DimensionMismatchError(
                f"step {batch.t}: dimension {batch.features.shape[1]} != {d}"
            )
        if steps and batch.t != steps[-1].t + 1:
            raise NonContiguousTimeError(
                f"step {batch.t} follows step {steps[-1].t}"
            )
        if batch.count == 0:
            raise DomainError(f"step {batch.t} is empty")
        feat_name = f"step_{batch.t:05d}.emb"
        write_matrix(dirpath / feat_name, batch.features)
        label_name = None
        if batch.labels is not None:
            if len(batch.labels) != batch.count:
                raise DimensionMismatchError(
                    f"step {batch.t}: {len(batch.labels)} labels for "
                    f"{batch.count} rows"
                )
            label_name = f"step_{batch.t:05d}.lbl"
            _write_labels(dirpath / label_name, batch.labels)
        steps.append(StepEntry(batch.t, feat_name, label_name, batch.count))
    if not steps:
        raise DomainError("cannot write an empty stream")
    manifest = StreamManifest(
        format_version=FORMAT_VERSION,
        d=int(d),
        k=int(k),
        steps=steps,
        metadata=dict(metadata or {}),
    )
    payload = {
        "format_version": manifest.format_version,
        "d": manifest.d,
        "k": manifest.k,
        "steps": [
            {
                "t": s.t,
                "features": s.feature_path,
                "labels": s.label_path,
                "count": s.count,
            }
            for s in steps
        ],
        "metadata": manifest.metadata,
    }
    (dirpath / MANIFEST_NAME).write_text(json.dumps(payload, indent=1))
    return manifest


def read_manifest(dirpath) -> StreamManifest:
    dirpath = Path(dirpath)
    mpath = dirpath / MANIFEST_NAME
    if not mpath.exists():
        raise MissingFileError(str(mpath))
    try:
        payload = json.loads(mpath.read_text())
    except json.JSONDecodeError as exc:
        raise CorruptHeaderError(f"{mpath}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise CorruptHeaderError(f"{mpath}: expected a JSON object")
    if payload.get("format_version") != FORMAT_VERSION:
        raise CorruptHeaderError(
            f"{mpath}: unsupported format_version {payload.get('format_version')!r}"
        )
    try:
        steps = [
            StepEntry(int(s["t"]), s["features"], s.get("labels"), int(s["count"]))
            for s in payload["steps"]
        ]
        d, k = int(payload["d"]), int(payload["k"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptHeaderError(f"{mpath}: malformed manifest ({exc!r})") from exc
    if not steps:
        raise CorruptHeaderError(f"{mpath}: no steps")
    if steps[0].t != 1:
        raise NonContiguousTimeError(f"first step is t={steps[0].t}, expected 1")
    for prev, cur in zip(steps, steps[1:]):
        if cur.t != prev.t + 1:
            raise NonContiguousTimeError(
                f"step t={cur.t} follows t={prev.t}; steps must be contiguous"
            )
    if any(s.count <= 0 for s in steps):
        raise CorruptHeaderError(f"{mpath}: step with non-positive count")
    return StreamManifest(
        format_version=payload["format_version"],
        d=d,
        k=k,
        steps=steps,
        metadata={str(k_): str(v) for k_, v in payload.get("metadata", {}).items()},
    )


def read_stream(dirpath) -> Iterator[EmbeddingBatch]:
    """Lazily yield batches; at most one step's payload is in memory."""
    dirpath = Path(dirpath)
    manifest = read_manifest(dirpath)
    for entry in manifest.steps:
        feats = read_matrix(dirpath / entry.feature_path)
        if feats.shape != (entry.count, manifest.d):
            raise CorruptPayloadError(
                f"step t={entry.t}: payload shape {feats.shape} does not match "
                f"manifest ({entry.count}, {manifest.d})"
            )
        if not np.all(np.isfinite(feats)):
            raise CorruptPayloadError(f"step t={entry.t}: non-finite features")
        labels = None
        if entry.label_path is not None:
            labels = _read_labels(dirpath / entry.label_path, entry.count)
            if labels.size and labels.max() >= manifest.k:
                raise CorruptPayloadError(
                    f"step t={entry.t}: label {int(labels.max())} out of range "
                    f"for K={manifest.k}"
                )
        yield EmbeddingBatch(entry.t, feats, labels)


def read_trajectory(dirpath) -> np.ndarray | None:
    """Ground-truth prototype trajectory as (T, K, D), when present."""
    dirpath = Path(dirpath)
    manifest = read_manifest(dirpath)
    name = manifest.metadata.get("trajectory")
    if name is None:
        return None
    flat = read_matrix(dirpath / name).astype(float)
    t_len = len(manifest.steps)
    return flat.reshape(t_len, manifest.k, manifest.d)


def read_csv_stream(path, k: int | None = None) -> tuple[list[EmbeddingBatch], int]:
    """Ingest a CSV dump with header ``t,label,f0..f{D-1}``.

    Label entries may be empty (unlabeled streams). Returns the batches
    and the inferred class count (max label + 1) unless `k` is given.
    """
    path = Path(path)
    if not path.exists():
        raise MissingFileError(str(path))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or len(header) < 3 or header[:2] != ["t", "label"]:
            raise CorruptHeaderError(f"{path}: expected header t,label,f0..")
        d = len(header) - 2
        rows_by_t: dict[int, list] = {}
        labels_by_t: dict[int, list] = {}
        for row in reader:
            if len(row) != d + 2:
                raise CorruptPayloadError(f"{path}: row width {len(row)} != {d + 2}")
            try:
                t = int(row[0])
                feats = [float(x) for x in row[2:]]
            except ValueError as exc:
                raise CorruptPayloadError(f"{path}: {exc}") from exc
            rows_by_t.setdefault(t, []).append(feats)
            labels_by_t.setdefault(t, []).append(row[1])
    if not rows_by_t:
        raise CorruptPayloadError(f"{path}: no data rows")
    ts = sorted(rows_by_t)
    if ts != list(range(ts[0], ts[0] + len(ts))):
        raise NonContiguousTimeError(f"{path}: non-contiguous time indices {ts}")
    batches = []
    max_label = -1
    for t in ts:
        feats = np.asarray(rows_by_t[t], dtype=np.float32)
        raw = labels_by_t[t]
        labels = None
        if all(x != "" for x in raw):
            try:
                labels = np.asarray([int(x) for x in raw], dtype=np.uint32)
            except (ValueError, OverflowError) as exc:
                raise CorruptPayloadError(f"{path}: bad label at t={t}: {exc}") from exc
            max_label = max(max_label, int(labels.max()))
        batches.append(EmbeddingBatch(t, feats, labels))
    return batches, (k if k is not None else max_label + 1)


# -- label-shift reordering -------------------------------------------------


def make_label_shift(
    batches: Iterable[EmbeddingBatch],
    seed: int,
    k: int,
    whole_stream: bool = False,
) -> list[EmbeddingBatch]:
    """Reorder samples class-contiguously with random class orders.

    Default reorders within each step independently (one drawn order per
    step); whole_stream=True sorts the entire sample sequence by a single
    drawn class order before re-splitting into the original step sizes,
    reproducing the harsher consecutive-same-class regime. Features and
    labels are co-permuted, so the output is a permutation of the input
    multiset; within a class the original order is preserved.
    """
    batches = list(batches)
    if any(b.labels is None for b in batches):
        raise MissingLabelsError("label-shift reordering needs labels")
    if any(np.any((b.labels < 0) | (b.labels >= k)) for b in batches):
        raise DomainError(f"labels must lie in [0, {k}) for label-shift reordering")
    rng = np.random.default_rng(seed)
    if not whole_stream:
        out = []
        for b in batches:
            order = rng.permutation(k)
            idx = np.concatenate(
                [np.flatnonzero(b.labels == c) for c in order]
            ).astype(int)
            out.append(EmbeddingBatch(b.t, b.features[idx], b.labels[idx]))
        return out
    feats = np.concatenate([b.features for b in batches])
    labels = np.concatenate([b.labels for b in batches])
    order = rng.permutation(k)
    idx = np.concatenate([np.flatnonzero(labels == c) for c in order]).astype(int)
    feats, labels = feats[idx], labels[idx]
    out = []
    offset = 0
    for b in batches:
        n = b.count
        out.append(EmbeddingBatch(b.t, feats[offset:offset + n], labels[offset:offset + n]))
        offset += n
    return out


# -- synthetic drift --------------------------------------------------------


def sample_vmf(rng: np.random.Generator, mu: np.ndarray, kappa: float, n: int) -> np.ndarray:
    """Exact vMF sampling via the rejection scheme of Wood (1994)."""
    mu = np.asarray(mu, dtype=float)
    d = mu.shape[0]
    if d < 2:
        raise DomainError("vMF sampling needs d >= 2")
    if kappa <= 0.0:
        raise DomainError("vMF sampling needs kappa > 0")
    b = (-2.0 * kappa + math.sqrt(4.0 * kappa**2 + (d - 1.0) ** 2)) / (d - 1.0)
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + (d - 1.0) * math.log(1.0 - x0 * x0)

    w = np.empty(n)
    filled = 0
    while filled < n:
        todo = n - filled
        m = max(8, int(1.3 * todo))
        z = rng.beta((d - 1.0) / 2.0, (d - 1.0) / 2.0, size=m)
        cand = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.uniform(size=m)
        accept = kappa * cand + (d - 1.0) * np.log(1.0 - x0 * cand) - c >= np.log(u)
        got = cand[accept][:todo]
        w[filled:filled + got.size] = got
        filled += got.size

    # tangential directions: project Gaussians off mu and normalize
    g = rng.standard_normal((n, d))
    g -= np.outer(g @ mu, mu)
    norms = np.linalg.norm(g, axis=1)
    # a zero tangential projection has probability zero; regenerate defensively
    bad = norms <= 1e-12
    while np.any(bad):
        g[bad] = rng.standard_normal((int(bad.sum()), d))
        g[bad] -= np.outer(g[bad] @ mu, mu)
        norms = np.linalg.norm(g, axis=1)
        bad = norms <= 1e-12
    tang = g / norms[:, None]
    return w[:, None] * mu + np.sqrt(np.maximum(0.0, 1.0 - w * w))[:, None] * tang


def _separation_target_deg(d: int, k: int) -> float:
    """Target minimum pairwise angle from a spherical-cap packing bound.

    Disjoint caps of half-angle alpha around K points force pairwise
    angles >= 2 alpha, with the cap fraction bounded by 1/K. Random
    resampling cannot reach the bound, so the target uses half its chord.
    """
    if k <= 1:
        return 0.0
    s = float(betaincinv((d - 1.0) / 2.0, 0.5, min(1.0, 1.0 / k)))
    return math.degrees(2.0 * math.asin(0.5 * math.sqrt(s)))


def _min_pairwise_angle_deg(dirs: np.ndarray) -> float:
    gram = np.clip(dirs @ dirs.T, -1.0, 1.0)
    np.fill_diagonal(gram, -1.0)
    return math.degrees(math.acos(float(gram.max())))


def well_separated_directions(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    """K unit directions with pairwise angles above the packing target."""
    target = _separation_target_deg(d, k)
    for _ in range(_SEPARATION_RETRIES):
        dirs = normalize_rows(rng.standard_normal((k, d)))
        if k == 1 or _min_pairwise_angle_deg(dirs) >= target:
            return dirs
    raise InfeasibleSeparationError(
        f"could not place K={k} directions in D={d} with pairwise angle "
        f">= {target:.1f} degrees after {_SEPARATION_RETRIES} attempts"
    )


def _draw_labels(rng: np.random.Generator, scenario: DriftScenario) -> np.ndarray:
    n, k = scenario.n_per_step, scenario.k
    dist = scenario.label_distribution
    if dist == "uniform":
        return rng.integers(0, k, size=n).astype(np.uint32)
    if dist == "ordered":
        counts = np.bincount(rng.integers(0, k, size=n), minlength=k)
        order = rng.permutation(k)
        return np.concatenate(
            [np.full(counts[c], c, dtype=np.uint32) for c in order]
        )
    alpha = float(dist.split(":", 1)[1])
    probs = rng.dirichlet(np.full(k, alpha))
    return rng.choice(k, size=n, p=probs).astype(np.uint32)


def synth_drift(scenario: DriftScenario) -> tuple[list[EmbeddingBatch], np.ndarray]:
    """Generate a drifting stream plus its ground-truth center trajectory.

    Sphere geometry rotates every class's mean direction by
    drift_deg_per_step inside a fixed per-class random 2-plane and samples
    vMF(mu_t, kappa_true); Euclidean geometry translates Gaussian cluster
    means by fixed per-class drift vectors. Deterministic per seed.
    """
    rng = np.random.default_rng(scenario.seed)
    d, k, t_len = scenario.d, scenario.k, scenario.t_steps
    base = well_separated_directions(rng, d, k)

    if scenario.geometry == "sphere":
        # per-class orthonormal partner spanning the rotation plane
        partners = np.empty_like(base)
        for j in range(k):
            g = rng.standard_normal(d)
            g -= (g @ base[j]) * base[j]
            partners[j] = g / np.linalg.norm(g)
        step_rad = math.radians(scenario.drift_deg_per_step)
        trajectory = np.empty((t_len, k, d))
        for i in range(t_len):
            ang = i * step_rad
            trajectory[i] = math.cos(ang) * base + math.sin(ang) * partners
        batches = []
        for i in range(t_len):
            labels = _draw_labels(rng, scenario)
            feats = np.empty((scenario.n_per_step, d))
            for j in range(k):
                rows = np.flatnonzero(labels == j)
                if rows.size:
                    feats[rows] = sample_vmf(
                        rng, trajectory[i, j], scenario.kappa_true, rows.size
                    )
            batches.append(
                EmbeddingBatch(i + 1, feats.astype(np.float32), labels)
            )
        return batches, trajectory

    drift_vecs = scenario.drift_scale * normalize_rows(rng.standard_normal((k, d)))
    trajectory = np.empty((t_len, k, d))
    for i in range(t_len):
        trajectory[i] = base + i * drift_vecs
    batches = []
    for i in range(t_len):
        labels = _draw_labels(rng, scenario)
        feats = trajectory[i][labels] + scenario.sigma_true * rng.standard_normal(
            (scenario.n_per_step, d)
        )
        batches.append(EmbeddingBatch(i + 1, feats.astype(np.float32), labels))
    return batches, trajectory


def write_synthetic(dirpath, scenario: DriftScenario) -> StreamManifest:
    """Generate, write, and describe a synthetic stream directory."""
    batches, trajectory = synth_drift(scenario)
    metadata = {
        "trajectory": TRAJECTORY_NAME,
        "geometry": scenario.geometry,
        "kappa_true": str(scenario.kappa_true),
        "sigma_true": str(scenario.sigma_true),
        "drift_deg_per_step": str(scenario.drift_deg_per_step),
        "drift_scale": str(scenario.drift_scale),
        "label_distribution": scenario.label_distribution,
        "seed": str(scenario.seed),
    }
    manifest = write_stream(dirpath, batches, scenario.k, metadata)
    flat = trajectory.reshape(scenario.t_steps * scenario.k, scenario.d)
    write_matrix(Path(dirpath) / TRAJECTORY_NAME, flat)
    return manifest
