"""Embedding streams: on-disk format, readers/writers, reordering, synthesis.

Every step of a stream obeys one contract. Its features are a 2-D (N, D)
array of finite values with N, D >= 1, and its labels, when present, are
N integers in [0, K). `write_stream` enforces it on what it writes and
`read_stream` on what it reads. In a stream directory step i (1-based)
has t = i.

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
fixed per-class drift vectors. Each step draws its labels uniformly, or
from class proportions drawn from a symmetric Dirichlet
(`DriftScenario.dirichlet_alpha`), and samples every row at that step's
centres. `make_label_shift` reorders the rows of each step class by
class; it moves no sample to another step.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
from scipy.special import betaincinv

from .errors import (
    CorruptHeaderError,
    CorruptPayloadError,
    DomainError,
    InfeasibleSeparationError,
    MissingFileError,
    MissingLabelsError,
    NonContiguousTimeError,
    check_int,
    check_real,
)
from .mathcore import _float_array, normalize_rows

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
    "make_label_shift",
    "sample_vmf",
    "well_separated_directions",
    "synth_drift",
]

MAGIC = b"STADEMB1"
MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 1
MAX_DRIFT_DEG = 10.0  # largest drift per step that still counts as gradual
_UNIT_TOL = 1e-9  # how far from 1 the norm of sample_vmf's mu may lie
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


# StepEntry field -> key of a step in the manifest
_STEP_KEYS = {"t": "t", "feature_path": "features", "label_path": "labels", "count": "count"}


@dataclass
class StreamManifest:
    format_version: int
    d: int
    k: int
    steps: list[StepEntry]
    metadata: dict[str, str] = field(default_factory=dict)


@dataclass
class DriftScenario:
    """Description of a synthetic gradually drifting stream.

    d, k, t_steps, n_per_step and seed are integers (bools excluded), with
    d >= 2, seed >= 0 and the others >= 1; all but the seed lie within the
    float range. kappa_true, sigma_true, drift_scale and
    drift_deg_per_step are finite real numbers (bools excluded):
    kappa_true and sigma_true > 0, drift_deg_per_step in
    [0, MAX_DRIFT_DEG]. Each step's labels are uniform over the K classes
    when dirichlet_alpha is None; otherwise each step draws its class
    proportions from a symmetric Dirichlet of that alpha, a real number
    (bools excluded), finite and > 0. Anything else raises DomainError.
    """

    geometry: str = "sphere"  # sphere | euclidean
    d: int = 16
    k: int = 5
    t_steps: int = 50
    n_per_step: int = 200
    kappa_true: float = 50.0
    sigma_true: float = 0.1
    drift_deg_per_step: float = 2.0
    drift_scale: float = 0.02
    dirichlet_alpha: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.geometry not in ("sphere", "euclidean"):
            raise DomainError(f"unknown geometry {self.geometry!r}")
        for name, minimum in (("d", 2), ("k", 1), ("t_steps", 1), ("n_per_step", 1), ("seed", 0)):
            check_int(name, getattr(self, name), minimum, as_float=name != "seed")
        check_real("kappa_true", self.kappa_true, 0.0, above=True)
        check_real("sigma_true", self.sigma_true, 0.0, above=True)
        check_real("drift_scale", self.drift_scale)
        # the gradual-shift contract
        check_real("drift_deg_per_step", self.drift_deg_per_step, 0.0, MAX_DRIFT_DEG)
        if self.dirichlet_alpha is not None:
            check_real("dirichlet_alpha", self.dirichlet_alpha, 0.0, above=True)


# -- the step contract -----------------------------------------------------


def _check_step(t, feats: np.ndarray, labels: np.ndarray | None, d: int | None, k: int,
                error: type[Exception]) -> None:
    """Raise `error` unless step t meets the step contract (module docstring).

    `d` of None accepts any D >= 1.
    """
    if feats.ndim != 2 or feats.size == 0 or d not in (None, feats.shape[1]):
        raise error(f"step t={t}: features of shape {feats.shape}, expected (N >= 1, {d})")
    if not np.isfinite(feats).all():
        raise error(f"step t={t}: non-finite features")
    if labels is None:
        return
    if labels.dtype.kind not in "iu" or labels.shape != feats.shape[:1]:
        raise error(f"step t={t}: labels {labels.dtype} {labels.shape}, not {len(feats)} integers")
    low, high = int(labels.min()), int(labels.max())
    if low < 0 or high >= k:
        raise error(f"step t={t}: labels span [{low}, {high}], outside [0, {k})")


def _check_time(i: int, t) -> None:
    """The time rule of a stream directory: step i (1-based) has t = i."""
    if t != i:
        raise NonContiguousTimeError(f"step {i} has t={t!r}; step i must have t = i")


# -- binary payloads -------------------------------------------------------


def write_matrix(path, arr: np.ndarray) -> None:
    """Write a float32 matrix with the 16-byte header.

    An array that does not convert to a 2-d float32 one raises DomainError.
    """
    arr = _float_array(arr, "matrix", dtype="<f4")
    if arr.ndim != 2:
        raise DomainError(f"expected a 2-d array, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes(order="C"))


def _read_bytes(path) -> tuple[Path, bytes]:
    """The path and bytes of a file; MissingFileError unless it is a
    regular file (a directory, say, or nothing)."""
    path = Path(path)
    if not path.is_file():
        raise MissingFileError(f"{path}: not a regular file")
    return path, path.read_bytes()


def read_matrix(path) -> np.ndarray:
    path, raw = _read_bytes(path)
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


def _read_labels(path, count: int) -> np.ndarray:
    path, raw = _read_bytes(path)
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
    """Write batches and a manifest into a directory.

    Enforces the step contract and the time rule (module docstring), raising
    DomainError or NonContiguousTimeError, so whatever it writes reads back.
    A k that is not an integer >= 1 (bools excluded) within the float
    range, or metadata that is neither None nor a dict, raises DomainError
    before anything is written.
    An existing manifest is removed before the first step file is written,
    so a rewrite rejected part-way leaves a directory that read_stream
    refuses instead of one that mixes new and old steps.
    """
    check_int("k", k, 1, as_float=True)
    if metadata is not None and not isinstance(metadata, dict):
        raise DomainError(f"metadata must be a dict, got {type(metadata).__name__}")
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    steps: list[StepEntry] = []
    d = None
    for i, batch in enumerate(batches, start=1):
        _check_time(i, batch.t)
        feats = _float_array(batch.features, "features", dtype="<f4")
        labels = None if batch.labels is None else np.asarray(batch.labels)
        _check_step(i, feats, labels, d, k, DomainError)
        d = feats.shape[1]
        name = f"step_{i:05d}"
        if i == 1:
            (dirpath / MANIFEST_NAME).unlink(missing_ok=True)
        write_matrix(dirpath / f"{name}.emb", feats)
        label_name = None
        if labels is not None:
            label_name = f"{name}.lbl"
            labels.astype("<u4").tofile(dirpath / label_name)
        steps.append(StepEntry(i, f"{name}.emb", label_name, len(feats)))
    if not steps:
        raise DomainError("cannot write an empty stream")
    metadata = {str(key): str(value) for key, value in (metadata or {}).items()}
    manifest = StreamManifest(FORMAT_VERSION, d, k, steps, metadata)
    payload = asdict(manifest)
    payload["steps"] = [{_STEP_KEYS[name]: v for name, v in s.items()} for s in payload["steps"]]
    (dirpath / MANIFEST_NAME).write_text(json.dumps(payload, indent=1))
    return manifest


def _manifest_int(value, what: str, low: int) -> int:
    if type(value) is not int or value < low:
        raise CorruptHeaderError(f"manifest {what} is {value!r}, expected an integer >= {low}")
    return value


def _file_name(value, what: str) -> str:
    """`value` if it names a file inside the stream directory."""
    if not isinstance(value, str) or value in ("", ".", "..") or "/" in value or "\\" in value:
        raise CorruptHeaderError(f"manifest {what} is {value!r}, expected a plain file name")
    return value


def read_manifest(dirpath) -> StreamManifest:
    mpath, raw = _read_bytes(Path(dirpath) / MANIFEST_NAME)
    try:
        payload = json.loads(raw)
    except ValueError as exc:
        raise CorruptHeaderError(f"{mpath}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise CorruptHeaderError(f"{mpath}: expected a JSON object")
    if _manifest_int(payload.get("format_version"), "format_version", 1) != FORMAT_VERSION:
        raise CorruptHeaderError(f"{mpath}: unsupported format_version")
    raw_steps, metadata = payload.get("steps"), payload.get("metadata", {})
    if not isinstance(raw_steps, list) or not raw_steps:
        raise CorruptHeaderError(f"{mpath}: no steps")
    if not isinstance(metadata, dict) or not all(isinstance(s, dict) for s in raw_steps):
        raise CorruptHeaderError(f"{mpath}: metadata and every step must be JSON objects")
    steps = [StepEntry(**{name: s.get(key) for name, key in _STEP_KEYS.items()}) for s in raw_steps]
    for i, entry in enumerate(steps, start=1):
        _check_time(i, _manifest_int(entry.t, f"step {i} t", 1))
        _manifest_int(entry.count, f"step {i} count", 1)
        _file_name(entry.feature_path, f"step {i} features")
        if entry.label_path is not None:
            _file_name(entry.label_path, f"step {i} labels")
    return StreamManifest(
        format_version=FORMAT_VERSION,
        d=_manifest_int(payload.get("d"), "d", 1),
        k=_manifest_int(payload.get("k"), "k", 1),
        steps=steps,
        metadata={key: str(value) for key, value in metadata.items()},
    )


def read_stream(dirpath) -> Iterator[EmbeddingBatch]:
    """Lazily yield batches; at most one step's payload is in memory."""
    dirpath = Path(dirpath)
    manifest = read_manifest(dirpath)
    for entry in manifest.steps:
        feats = read_matrix(dirpath / entry.feature_path)
        if len(feats) != entry.count:
            raise CorruptPayloadError(f"step t={entry.t}: {len(feats)} rows, not {entry.count}")
        labels = None
        if entry.label_path is not None:
            labels = _read_labels(dirpath / entry.label_path, entry.count)
        _check_step(entry.t, feats, labels, manifest.d, manifest.k, CorruptPayloadError)
        yield EmbeddingBatch(entry.t, feats, labels)


# -- label-shift reordering -------------------------------------------------


def make_label_shift(batches: Iterable[EmbeddingBatch], seed: int, k: int) -> list[EmbeddingBatch]:
    """Reorder each step's samples class-contiguously, in a random class order.

    Every step draws its own order of the K classes, and its rows are
    sorted by their class's place in that order, stably, so within a
    class the original order is preserved. Features and labels are
    co-permuted, so each step keeps its multiset of samples. The trackers'
    answers do not depend on row order within a batch, so they are those
    of the input stream.

    Features and labels are converted first, as `write_stream` converts
    them: the features to float32, the stream's type, and the labels to an
    array. A batch without labels raises MissingLabelsError. A seed that is
    not an integer >= 0 or a k that is not one >= 1 (bools excluded)
    within the float range, features that do not convert, or a step that
    breaks the step contract (module docstring) for k classes, raises
    DomainError.
    """
    check_int("seed", seed, 0)
    check_int("k", k, 1, as_float=True)
    batches = list(batches)
    if any(b.labels is None for b in batches):
        raise MissingLabelsError("label-shift reordering needs labels")
    rng = np.random.default_rng(seed)
    out = []
    for b in batches:
        feats = _float_array(b.features, "features", dtype="<f4")
        labels = np.asarray(b.labels)
        _check_step(b.t, feats, labels, None, k, DomainError)
        rank = np.argsort(rng.permutation(k))  # place of each class in the drawn order
        idx = np.argsort(rank[labels], kind="stable")
        out.append(EmbeddingBatch(b.t, feats[idx], labels[idx]))
    return out


# -- synthetic drift --------------------------------------------------------


def sample_vmf(rng: np.random.Generator, mu: np.ndarray, kappa: float, n: int) -> np.ndarray:
    """Exact vMF sampling via the rejection scheme of Wood (1994).

    mu is a unit vector of d >= 2 entries, kappa a finite real number > 0
    and n an integer >= 0. A mu whose norm is more than 1e-9 from 1 raises
    DomainError rather than being normalized, since its samples would lie
    off the sphere. A kappa so large against d that Wood's envelope rounds
    away, from about 3.5e7 (d - 1) on, raises DomainError, as does any
    other bad input.
    """
    mu = _float_array(mu, "mu")
    if mu.ndim != 1 or mu.shape[0] < 2 or not np.isfinite(mu).all():
        raise DomainError(f"vMF sampling needs a finite 1-D mu of d >= 2, got shape {mu.shape}")
    if abs(math.hypot(*mu) - 1.0) > _UNIT_TOL:  # hypot: no overflow at huge entries
        raise DomainError(f"vMF sampling needs a unit mu, got norm {math.hypot(*mu)!r}")
    check_real("kappa", kappa, 0.0, above=True)
    check_int("n", n, 0)
    d = mu.shape[0]
    try:
        b = (-2.0 * kappa + math.sqrt(4.0 * kappa**2 + (d - 1.0) ** 2)) / (d - 1.0)
    except OverflowError:  # kappa**2
        b = math.inf
    x0 = (1.0 - b) / (1.0 + b)
    # b cancels to 0 once 4 kappa^2 swamps (d - 1)^2, or is NaN past overflow;
    # then x0 is 1 or NaN and the envelope's log(1 - x0^2) is undefined
    if not 0.0 < 1.0 - x0 * x0:
        raise DomainError(f"vMF sampling at kappa={kappa!r} is beyond float precision in d={d}")
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
    s = float(betaincinv((d - 1.0) / 2.0, 0.5, min(1.0, 1.0 / k)))
    return math.degrees(2.0 * math.asin(0.5 * math.sqrt(s)))


def _min_pairwise_angle_deg(dirs: np.ndarray) -> float:
    gram = np.clip(dirs @ dirs.T, -1.0, 1.0)
    np.fill_diagonal(gram, -1.0)
    return math.degrees(math.acos(float(gram.max())))


def well_separated_directions(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    """K unit directions with pairwise angles above the packing target; a
    d below 2 or a k below 1, or either beyond the float range, raises
    DomainError."""
    check_int("d", d, 2, as_float=True)
    check_int("k", k, 1, as_float=True)
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
    if scenario.dirichlet_alpha is None:
        return rng.integers(0, k, size=n).astype(np.uint32)
    probs = rng.dirichlet(np.full(k, scenario.dirichlet_alpha))
    return rng.choice(k, size=n, p=probs).astype(np.uint32)


def synth_drift(scenario: DriftScenario) -> tuple[list[EmbeddingBatch], np.ndarray]:
    """Generate a drifting stream plus its ground-truth center trajectory.

    Sphere geometry rotates every class's mean direction by
    drift_deg_per_step inside a fixed per-class random 2-plane and samples
    vMF(mu_t, kappa_true); Euclidean geometry translates Gaussian cluster
    means by fixed per-class drift vectors. Deterministic per seed.
    """
    rng = np.random.default_rng(scenario.seed)
    d, k, n = scenario.d, scenario.k, scenario.n_per_step
    base = well_separated_directions(rng, d, k)
    sphere = scenario.geometry == "sphere"
    if sphere:
        # per-class orthonormal partner spanning the rotation plane
        partners = np.empty_like(base)
        for j in range(k):
            g = rng.standard_normal(d)
            g -= (g @ base[j]) * base[j]
            partners[j] = g / np.linalg.norm(g)
        step_rad = math.radians(scenario.drift_deg_per_step)
        trajectory = np.stack([
            math.cos(i * step_rad) * base + math.sin(i * step_rad) * partners
            for i in range(scenario.t_steps)
        ])
    else:
        drift_vecs = scenario.drift_scale * normalize_rows(rng.standard_normal((k, d)))
        trajectory = np.stack([base + i * drift_vecs for i in range(scenario.t_steps)])
    batches = []
    for t, centers in enumerate(trajectory, start=1):
        labels = _draw_labels(rng, scenario)
        if sphere:
            feats = np.empty((n, d))
            for j in np.unique(labels):
                rows = np.flatnonzero(labels == j)
                feats[rows] = sample_vmf(rng, centers[j], scenario.kappa_true, rows.size)
        else:
            feats = centers[labels] + scenario.sigma_true * rng.standard_normal((n, d))
        batches.append(EmbeddingBatch(t, feats.astype(np.float32), labels))
    return batches, trajectory
